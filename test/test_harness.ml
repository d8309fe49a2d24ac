(* Harness tests: report rendering, the measurement protocol, suite
   plumbing and experiment table generation on a tiny database. *)

module Sys_ = Harness.System
module Exp = Harness.Experiments
module Measure = Harness.Measure
module Report = Harness.Report
module Params = Oo7.Params
module Clock = Simclock.Clock
module Cat = Simclock.Category

let seed = 5

let test_report_render () =
  let out =
    Report.render ~title:"T"
      ~header:[ "name"; "v" ]
      ~rows:[ [ "a"; "1" ]; [ "longer"; "22" ] ]
  in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check string) "title" "T" (List.nth lines 0);
  (* All data lines equally wide (aligned columns). *)
  let w = String.length (List.nth lines 1) in
  Alcotest.(check int) "underline width" w (String.length (List.nth lines 2));
  Alcotest.(check int) "row width" w (String.length (List.nth lines 3));
  Alcotest.(check string) "ratio format" "x2.00" (Report.ratio 4.0 2.0);
  Alcotest.(check string) "zero guard" "-" (Report.ratio 1.0 0.0);
  Alcotest.(check string) "seconds" "1.5" (Report.seconds 1500.0)

let test_measure_phase () =
  let clock = Clock.create () in
  let server = Esm.Server.create ~clock ~cm:Simclock.Cost_model.default () in
  let m =
    Measure.phase ~clock ~server (fun () ->
        Clock.charge clock Cat.Data_io 5000.0;
        Clock.charge clock Cat.Interp 1000.0;
        42)
  in
  Alcotest.(check int) "result" 42 m.Measure.result;
  Alcotest.(check (float 0.01)) "ms" 6.0 m.Measure.ms;
  Alcotest.(check (float 0.01)) "category" 5.0 (Measure.cat m Cat.Data_io);
  (* A second phase only sees its own charges. *)
  let m2 = Measure.phase ~clock ~server (fun () -> 0) in
  Alcotest.(check (float 0.001)) "isolated" 0.0 m2.Measure.ms

let sys = lazy (Sys_.make_qs Params.tiny ~seed)
let e_sys = lazy (Sys_.make_e Params.tiny ~seed)

let test_run_protocol () =
  let sys = Lazy.force sys in
  let r = sys.Sys_.run ~op:"T1" ~seed ~hot_reps:2 in
  Alcotest.(check bool) "cold time positive" true (r.Sys_.cold.Measure.ms > 0.0);
  Alcotest.(check bool) "cold faults positive" true (r.Sys_.cold_faults > 0);
  Alcotest.(check bool) "hot present" true (r.Sys_.hot <> None);
  Alcotest.(check bool) "commit absent for read op" true (r.Sys_.commit = None);
  let u = sys.Sys_.run ~op:"T2A" ~seed ~hot_reps:2 in
  Alcotest.(check bool) "commit present for update" true (u.Sys_.commit <> None);
  Alcotest.(check bool) "no hot for update" true (u.Sys_.hot = None);
  Alcotest.(check bool) "total response adds commit" true
    (Sys_.total_response u > u.Sys_.cold.Measure.ms)

let test_suite_and_tables () =
  let suites =
    [ Exp.run_suite ~seed ~hot_reps:1 (Lazy.force sys) ~ops:[ "T1"; "T6"; "T8"; "T9"; "T7"; "T2A"; "T2B"; "T2C"; "T3A"; "T3B"; "T3C"; "Q1"; "Q2"; "Q3"; "Q4"; "Q5" ]
    ; Exp.run_suite ~seed ~hot_reps:1 (Lazy.force e_sys) ~ops:[ "T1"; "T6"; "T8"; "T9"; "T7"; "T2A"; "T2B"; "T2C"; "T3A"; "T3B"; "T3C"; "Q1"; "Q2"; "Q3"; "Q4"; "Q5" ] ]
  in
  (* Every renderer must produce a non-empty, multi-line table without
     raising. *)
  List.iteri
    (fun i text ->
      Alcotest.(check bool)
        (Printf.sprintf "table %d renders" i)
        true
        (String.length text > 40 && List.length (String.split_on_char '\n' text) > 3))
    [ Exp.fig8 suites
    ; Exp.table3 suites
    ; Exp.fig9 suites
    ; Exp.table4 suites
    ; Exp.table5 suites
    ; Exp.table6 (List.hd suites)
    ; Exp.fig10 suites
    ; Exp.fig11 suites
    ; Exp.fig12 suites
    ; Exp.fig13 suites
    ; Exp.table7 suites
    ; Exp.claims () ]

let test_reattach_shares_database () =
  let sys = Lazy.force sys in
  let again =
    Sys_.reattach_qs ~config:Quickstore.Qs_config.default sys Params.tiny
  in
  let a = (sys.Sys_.run ~op:"T1" ~seed ~hot_reps:0).Sys_.cold.Measure.result in
  let b = (again.Sys_.run ~op:"T1" ~seed ~hot_reps:0).Sys_.cold.Measure.result in
  Alcotest.(check int) "same database through second client" a b

let test_deterministic_measurements () =
  (* The whole simulation is deterministic: identical runs produce
     identical simulated times and I/O counts. *)
  let sys = Lazy.force sys in
  let r1 = sys.Sys_.run ~op:"Q3" ~seed ~hot_reps:0 in
  let r2 = sys.Sys_.run ~op:"Q3" ~seed ~hot_reps:0 in
  Alcotest.(check (float 0.0001)) "same simulated ms" r1.Sys_.cold.Measure.ms r2.Sys_.cold.Measure.ms;
  Alcotest.(check int) "same I/O" r1.Sys_.cold.Measure.client_reads r2.Sys_.cold.Measure.client_reads;
  Alcotest.(check int) "same result" r1.Sys_.cold.Measure.result r2.Sys_.cold.Measure.result

module Bj = Harness.Bench_json

(* A wrong answer fails the bench-shape gate instead of printing a
   warning: two systems that agree pass, one that disagrees on an op
   raises [Wrong_answer]. *)
let test_answers_must_agree () =
  let qs = Exp.run_suite ~seed ~hot_reps:0 (Lazy.force sys) ~ops:[ "T1"; "Q1" ] in
  let e = Exp.run_suite ~seed ~hot_reps:0 (Lazy.force e_sys) ~ops:[ "T1"; "Q1" ] in
  Bj.check_answers ~oracle:qs [ qs; e ];
  let wrong =
    { e with
      Exp.results =
        List.map
          (fun (op, (r : Sys_.run_result)) ->
            let cold = r.Sys_.cold in
            let wrong_cold = { cold with Measure.result = cold.Measure.result + 1 } in
            if op = "Q1" then (op, { r with Sys_.cold = wrong_cold }) else (op, r))
          e.Exp.results }
  in
  match Bj.check_answers ~oracle:qs [ qs; wrong ] with
  | () -> Alcotest.fail "a disagreeing suite passed the answer check"
  | exception Bj.Wrong_answer msg ->
    let q1 = (Exp.get e "Q1").Sys_.cold.Measure.result in
    Alcotest.(check string) "names system, op and both answers"
      (Printf.sprintf "%s answers Q1 with %d, %s with %d" e.Exp.name (q1 + 1)
         qs.Exp.name q1)
      msg

let () =
  Alcotest.run "harness"
    [ ( "harness"
      , [ Alcotest.test_case "report rendering" `Quick test_report_render
        ; Alcotest.test_case "measure phases" `Quick test_measure_phase
        ; Alcotest.test_case "run protocol" `Quick test_run_protocol
        ; Alcotest.test_case "suites and tables" `Quick test_suite_and_tables
        ; Alcotest.test_case "reattach shares db" `Quick test_reattach_shares_database
        ; Alcotest.test_case "deterministic" `Quick test_deterministic_measurements
        ; Alcotest.test_case "wrong answers fail" `Quick test_answers_must_agree ] ) ]
