(** One runner per table and figure of the paper's §5.

    Each function measures the reproduction and renders the same rows
    or series the paper reports, alongside the paper's own numbers (for
    the I/O and per-fault tables, which were published exactly) or the
    paper's stated relationship (for the bar-chart figures). *)

module Clock = Simclock.Clock
module Cat = Simclock.Category

(* A suite is a finished measurement: the system is not kept, so a
   caller holding many suites does not hold their stores and logs. *)
type suite = { name : string; db_mb : float; results : (string * System.run_result) list }

let traversal_ops = [ "T1"; "T6"; "T7"; "T8"; "T9" ]
let query_ops = [ "Q1"; "Q2"; "Q3"; "Q4"; "Q5" ]
let update_ops = [ "T2A"; "T2B"; "T2C"; "T3A"; "T3B"; "T3C" ]

let run_suite ?(seed = 1234) ?(hot_reps = 3) (sys : System.t) ~ops =
  let results = List.map (fun op -> (op, sys.System.run ~op ~seed ~hot_reps)) ops in
  { name = sys.System.name; db_mb = sys.System.db_size_mb (); results }

let get suite op =
  match List.assoc_opt op suite.results with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Experiments: op %s not in suite for %s" op suite.name)

let cold_ms suite op = (get suite op).System.cold.Measure.ms
let cold_io suite op = (get suite op).System.cold.Measure.client_reads

let hot_ms suite op =
  match (get suite op).System.hot with Some h -> h.Measure.ms | None -> nan

(* ------------------------------------------------------------------ *)

let table2 ~(small : suite list) ~(medium : suite list) =
  let find name l = List.find_opt (fun s -> String.equal s.name name) l in
  let rows =
    List.map
      (fun (name, p_small, p_med) ->
        let m l = match find name l with Some s -> Report.f1 s.db_mb | None -> "-" in
        [ name; m small; Report.f1 p_small; m medium; Report.f1 p_med ])
      Paper_data.table2
  in
  Report.render ~title:"Table 2. Database sizes (MB)"
    ~header:[ "system"; "small"; "paper"; "medium"; "paper" ]
    ~rows

let times_figure ?(fmt = Report.seconds) ~title ~ops ~value suites =
  let header = "op" :: List.concat_map (fun s -> [ s.name ^ " (s)" ]) suites in
  let rows = List.map (fun op -> op :: List.map (fun s -> fmt (value s op)) suites) ops in
  Report.render ~title ~header ~rows

let io_table ~title ~ops ~paper suites =
  let header =
    "op"
    :: List.concat_map (fun s -> [ s.name; "paper" ]) suites
  in
  let paper_io sysname op =
    match List.assoc_opt sysname paper with
    | Some l -> ( match List.assoc_opt op l with Some v -> string_of_int v | None -> "-")
    | None -> "-"
  in
  let rows =
    List.map
      (fun op ->
        op
        :: List.concat_map
             (fun s -> [ string_of_int (cold_io s op); paper_io s.name op ])
             suites)
      ops
  in
  Report.render ~title ~header ~rows

let fig8 suites =
  times_figure ~title:"Figure 8. OO7 traversal cold times, small database (seconds, simulated)"
    ~ops:traversal_ops ~value:cold_ms suites

let table3 suites =
  io_table ~title:"Table 3. Client I/O requests, traversals, small database" ~ops:traversal_ops
    ~paper:Paper_data.table3 suites

let fig9 suites =
  times_figure ~title:"Figure 9. OO7 query cold times, small database (seconds, simulated)"
    ~ops:query_ops ~value:cold_ms suites

let table4 suites =
  io_table ~title:"Table 4. Client I/O requests, queries, small database" ~ops:query_ops
    ~paper:Paper_data.table4 suites

(* Table 5: (cold - hot) / faults, T1 and T6. *)
let table5 suites =
  let per_fault s op =
    let r = get s op in
    let cold = r.System.cold.Measure.ms in
    let hot = match r.System.hot with Some h -> h.Measure.ms | None -> 0.0 in
    if r.System.cold_faults = 0 then 0.0 else (cold -. hot) /. float_of_int r.System.cold_faults
  in
  let rows =
    List.map
      (fun s ->
        let paper =
          List.assoc_opt s.name
            (List.map (fun (n, a, b) -> (n, (a, b))) Paper_data.table5)
        in
        let pt1, pt6 = match paper with Some (a, b) -> (Report.f1 a, Report.f1 b) | None -> ("-", "-") in
        [ s.name
        ; Report.f1 (per_fault s "T1")
        ; pt1
        ; Report.f1 (per_fault s "T6")
        ; pt6 ])
      suites
  in
  Report.render ~title:"Table 5. Average faulting cost (ms per fault)"
    ~header:[ "system"; "T1"; "paper"; "T6"; "paper" ]
    ~rows

(* Table 6: detailed QS fault breakdown by cost category. *)
let table6 (qs : suite) =
  let detail op =
    let r = get qs op in
    let faults = float_of_int (max 1 r.System.cold_faults) in
    let per cat = Measure.cat r.System.cold cat /. faults in
    [ ("min faults", per Cat.Min_fault)
    ; ("page fault", per Cat.Page_fault)
    ; ("misc. cpu overhead", per Cat.Fault_misc)
    ; ("data I/O", per Cat.Data_io)
    ; ("map I/O", per Cat.Map_io)
    ; ("swizzling", per Cat.Swizzle)
    ; ("mmap", per Cat.Mmap_call) ]
  in
  let d1 = detail "T1" and d6 = detail "T6" in
  let total l = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 l in
  let paper name =
    match List.find_opt (fun (n, _, _) -> String.equal n name) Paper_data.table6 with
    | Some (_, a, b) -> (Report.f1 a, Report.f1 b)
    | None -> ("-", "-")
  in
  let rows =
    List.map
      (fun (name, v1) ->
        let v6 = List.assoc name d6 in
        let p1, p6 = paper name in
        [ name; Report.f1 v1; p1; Report.f1 v6; p6 ])
      d1
    @ [ (let p1, p6 = paper "total" in
         [ "total"; Report.f1 (total d1); p1; Report.f1 (total d6); p6 ]) ]
  in
  Report.render ~title:"Table 6. Detailed QS faulting times (ms per fault)"
    ~header:[ "description"; "T1"; "paper"; "T6"; "paper" ]
    ~rows

let fig10 suites =
  let header = "op" :: List.map (fun s -> s.name ^ " (s)") suites in
  let rows =
    List.map
      (fun op ->
        op :: List.map (fun s -> Report.seconds (System.total_response (get s op))) suites)
      update_ops
  in
  Report.render ~title:"Figure 10. T2 and T3 response times, small database (seconds, simulated)"
    ~header ~rows

let fig11 suites =
  let header =
    [ "op"; "system"; "diff"; "log"; "map upd"; "flush+force"; "total (s)" ]
  in
  let rows =
    List.concat_map
      (fun op ->
        List.map
          (fun s ->
            match (get s op).System.commit with
            | None -> [ op; s.name; "-"; "-"; "-"; "-"; "-" ]
            | Some c ->
              [ op
              ; s.name
              ; Report.seconds (Measure.cat c Cat.Diff)
              ; Report.seconds (Measure.cat c Cat.Log_write)
              ; Report.seconds (Measure.cat c Cat.Map_update)
              ; Report.seconds (Measure.cat c Cat.Commit_flush)
              ; Report.seconds c.Measure.ms ])
          suites)
      update_ops
  in
  Report.render ~title:"Figure 11. T2 and T3 commit times, small database (seconds, simulated)"
    ~header ~rows

let fig12 suites =
  times_figure
    ~fmt:(fun ms -> Printf.sprintf "%.3f" (ms /. 1000.0))
    ~title:"Figure 12. Traversal hot times, small database (seconds, simulated)"
    ~ops:[ "T1"; "T6"; "T7"; "T8"; "T9" ]
    ~value:hot_ms suites

let fig13 suites =
  times_figure
    ~fmt:(fun ms -> Printf.sprintf "%.3f" (ms /. 1000.0))
    ~title:"Figure 13. Query hot times, small database (seconds, simulated)"
    ~ops:query_ops ~value:hot_ms suites

(* Table 7: T1 hot CPU profile. *)
let table7 suites =
  let profile s =
    match (get s "T1").System.hot with
    | None -> []
    | Some h ->
      let v cat = Measure.cat h cat in
      let epvm = v Cat.Interp +. v Cat.Residency_check in
      let rows =
        [ ("EPVM 3.0", epvm)
        ; ("malloc", v Cat.App_malloc)
        ; ("part set", v Cat.App_set)
        ; ("traverse", v Cat.App_traverse)
        ; ("pointer deref", v Cat.App_deref)
        ; ("misc.", v Cat.App_work +. v Cat.Index_op) ]
      in
      let total = List.fold_left (fun a (_, x) -> a +. x) 0.0 rows in
      List.map (fun (n, x) -> (n, if total = 0.0 then 0.0 else 100.0 *. x /. total)) rows
  in
  let profs = List.map (fun s -> (s.name, profile s)) suites in
  let names = [ "EPVM 3.0"; "malloc"; "part set"; "traverse"; "pointer deref"; "misc." ] in
  let rows =
    List.map
      (fun n ->
        n
        :: List.map
             (fun (_, prof) ->
               match List.assoc_opt n prof with Some v -> Report.f2 v | None -> "-")
             profs)
      names
  in
  Report.render ~title:"Table 7. T1 hot traversal detail (% of CPU time)"
    ~header:("description" :: List.map fst profs)
    ~rows

let fig14 suites =
  times_figure ~title:"Figure 14. Medium database, traversal cold times (seconds, simulated)"
    ~ops:[ "T1"; "T6"; "T7"; "T8" ]
    ~value:cold_ms suites

let table8 suites =
  io_table ~title:"Table 8. Traversal cold I/Os, medium database"
    ~ops:[ "T1"; "T6"; "T7"; "T8" ]
    ~paper:Paper_data.table8 suites

let fig15 suites =
  times_figure ~title:"Figure 15. Medium database, query cold times (seconds, simulated)"
    ~ops:query_ops ~value:cold_ms suites

let table9 suites =
  io_table ~title:"Table 9. Query cold I/Os, medium database" ~ops:query_ops
    ~paper:Paper_data.table9 suites

let fig16 suites =
  let header = "op" :: List.map (fun s -> s.name ^ " (s)") suites in
  let rows =
    List.map
      (fun op ->
        op :: List.map (fun s -> Report.seconds (System.total_response (get s op))) suites)
      update_ops
  in
  Report.render
    ~title:"Figure 16. Medium database, update traversal response times (seconds, simulated)"
    ~header ~rows

(* Figure 17: T1 small cold under page relocation, QS-CR vs QS-OR. *)
let fig17 ~seed ~fractions =
  let run_one mode frac =
    let config =
      { Quickstore.Qs_config.default with
        Quickstore.Qs_config.reloc =
          (if frac = 0.0 then Quickstore.Qs_config.No_reloc
           else
             match mode with
             | `CR -> Quickstore.Qs_config.Continual frac
             | `OR -> Quickstore.Qs_config.One_time frac) }
    in
    (* Fresh database per point: one-time relocation commits the new
       mapping, so runs must not contaminate each other. *)
    let sys = System.make_qs ~config Oo7.Params.small ~seed in
    let r = sys.System.run ~op:"T1" ~seed ~hot_reps:0 in
    System.total_response r
  in
  let rows =
    List.map
      (fun frac ->
        [ Printf.sprintf "%.0f%%" (100.0 *. frac)
        ; Report.seconds (run_one `CR frac)
        ; Report.seconds (run_one `OR frac) ])
      fractions
  in
  Report.render
    ~title:"Figure 17. T1 small cold response vs %% of pages relocated (seconds, simulated)"
    ~header:[ "relocated"; "QS-CR"; "QS-OR" ]
    ~rows

let claims () =
  Report.render ~title:"Paper-stated relationships (for EXPERIMENTS.md comparison)"
    ~header:[ "figure"; "quantity"; "paper says" ]
    ~rows:
      (List.map
         (fun c -> [ c.Paper_data.figure; c.Paper_data.what; c.Paper_data.expect ])
         Paper_data.claims)
