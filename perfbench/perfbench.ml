(* The repository benchmark: one command, three workloads.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
     perfbench --selftest

   Workloads: oo7-read-medium, oo7-update-small, mc-contention (see
   perfbench/README.md for why each exists and what it stresses).
   With --trace 0 the run reports the end-to-end metrics; with
   --trace 1 it reruns each prefix round through the outside-in
   tracer and reports the per-layer metrics, writing the spans to
   --trace-dir as a Chrome trace. The last line of standard output is
   one JSON object: correct, attempted, failed, metrics. *)

open Common

let workloads = [ "oo7-read-medium"; "oo7-update-small"; "mc-contention" ]

let run_workload ?(short = false) name ~seed ~seconds ~trace ~trace_file =
  let oo7 spec =
    Oo7_bench.run (if short then Oo7_bench.shortened spec else spec) ~seed ~seconds ~trace ~trace_file
  in
  match name with
  | "oo7-read-medium" -> oo7 Oo7_bench.read_medium
  | "oo7-update-small" -> oo7 Oo7_bench.update_small
  | "mc-contention" ->
    let spec = Mc_bench.contention in
    Mc_bench.run (if short then Mc_bench.shortened spec else spec) ~seed ~seconds ~trace
  | w -> invalid_arg ("unknown workload " ^ w)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let print_result ~workload ~seed r =
  Printf.printf "workload %s  seed %d  attempted %d  failed %d\n" workload seed r.attempted r.failed;
  List.iter (fun mt -> Printf.printf "  %-34s %18.6f %s\n" mt.name mt.value mt.unit) r.metrics;
  Printf.printf "  calibration kernel: median %.3f ms, nominal %.3f ms (wall times scaled by nominal/kernel)\n"
    (Calib.median_ns () /. 1e6) (Calib.nominal_ns /. 1e6);
  let fields =
    List.filter_map
      (fun mt ->
        (* failed_frac is 0 on a correct run, so it is no bounded
           metric; attempted and failed carry it exactly. *)
        if mt.name = "failed_frac" then None
        else Some (Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name (json_number mt.value) mt.unit))
      r.metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" (r.failed = 0)
    r.attempted r.failed (String.concat ", " fields)

(* Two shortened runs at one seed must agree on every deterministic
   metric and on the generated stream; another seed must change the
   stream. *)
let selftest () =
  let ok = ref true in
  let fresh () =
    Tracer.reset_all ();
    Tracer.reset_client ()
  in
  let run w ~seed ~trace =
    fresh ();
    run_workload ~short:true w ~seed ~seconds:0.0 ~trace ~trace_file:None
  in
  let det r = List.filter_map (fun mt -> if mt.det then Some (mt.name, mt.value) else None) r.metrics in
  let expect w what cond =
    Printf.printf "  %-18s %-40s %s\n%!" w what (if cond then "ok" else "FAIL");
    if not cond then ok := false
  in
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let a = run w ~seed:7 ~trace and b = run w ~seed:7 ~trace in
          let mode = if trace then "traced" else "untraced" in
          expect w (mode ^ ": no failed txns") (a.failed = 0 && b.failed = 0);
          expect w (mode ^ ": same seed, same stream") (a.stream_digest = b.stream_digest);
          expect w (mode ^ ": same seed, same counts") (det a = det b && a.attempted = b.attempted))
        [ false; true ];
      let a = run w ~seed:7 ~trace:false and c = run w ~seed:8 ~trace:false in
      expect w "other seed, other stream" (a.stream_digest <> c.stream_digest))
    workloads;
  if !ok then print_endline "perfbench selftest: ok" else (print_endline "perfbench selftest: FAILED"; exit 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let trace_dir = ref ".bench_build/perfbench-traces" and self = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME  " ^ String.concat " | " workloads)
    ; ("--seed", Arg.Set_int seed, "N  workload seed")
    ; ("--seconds", Arg.Set_float seconds, "S  measured time of an untraced run")
    ; ("--trace", Arg.Set_int trace, "0|1  per-layer traced run")
    ; ("--trace-dir", Arg.Set_string trace_dir, "DIR  where traced runs write their spans")
    ; ("--selftest", Arg.Set self, " determinism self-test") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !self then selftest ()
  else begin
    if not (List.mem !workload workloads) then begin
      prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " workloads);
      exit 2
    end;
    let trace = !trace = 1 in
    let trace_file =
      if not trace then None
      else begin
        (try Sys.mkdir !trace_dir 0o755 with Sys_error _ -> ());
        Some (Filename.concat !trace_dir (Printf.sprintf "%s-seed%d.json" !workload !seed))
      end
    in
    let r = run_workload !workload ~seed:!seed ~seconds:!seconds ~trace ~trace_file in
    if List.exists (fun mt -> not (Float.is_finite mt.value)) r.metrics then begin
      prerr_endline "perfbench: a metric is not finite";
      exit 1
    end;
    print_result ~workload:!workload ~seed:!seed r
  end
