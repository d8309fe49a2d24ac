(** The committed [BENCH_*.json] baselines, as one regime table.

    Each baseline file is one {!regime}: a file name, its header
    labels, a seed and a workload — an OO7 suite (database × systems ×
    ops × hot_reps), a list of {!Mc.run} argument sets, or the index
    scales. [regimes] lists them all. [test/test_bench_json.ml] renders
    every regime and byte-compares it with the committed file;
    [bench/main.exe] prints every regime as a table and, with [--json],
    writes its file. Adding a baseline means adding one entry to
    [regimes].

    Measurements are memoised by their inputs, so each distinct
    measurement runs once per process: the stock small-database E
    suite ranks against the prefetch and diff-ship QS suites in their
    [orderings], and the 4-client [Mc.run] feeds both the multi and the
    callback file.

    Everything recorded is simulated and deterministic, and floats
    print as the shortest round-tripping decimal, so a file is
    byte-stable run to run and any change to a committed baseline is a
    real change in bench shape. *)

module Exp = Experiments

let json_float f =
  if Float.is_nan f then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let json_string s = "\"" ^ String.concat "\\\"" (String.split_on_char '"' s) ^ "\""

(* ------------------------------------------------------------------ *)
(* JSON values, one printer.                                           *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> json_float f
  | Str s -> json_string s
  | List l -> "[" ^ String.concat "," (List.map to_string l) ^ "]"
  | Obj fields ->
    let field (k, v) = json_string k ^ ":" ^ to_string v in
    "{" ^ String.concat "," (List.map field fields) ^ "}"

(* ------------------------------------------------------------------ *)
(* Workloads.                                                          *)

(** An OO7 system, by configuration: E has no configuration knobs the
    baselines vary ([System.make_e] takes no [Qs_config]), so any
    QuickStore regime (prefetch, diff shipping, ...) cannot reach it. *)
type system = Qs of Quickstore.Qs_config.t | E

(** One OO7 suite: a freshly built system running [ops] in order. *)
type suite = { system : system; database : Oo7.Params.t; ops : string list; hot_reps : int }

type oo7 = {
  db : Oo7.Params.t;
  systems : system list;  (** rendered under ["systems"], in this order *)
  ops : string list;
  hot_reps : int;
  rivals : suite list;
      (** suites from other regimes ranked in ["orderings"] (after
          [systems]) but not rendered — each number is pinned once *)
  extra : System.run_result -> (string * json) list;  (** appended to every op object *)
}

(** One [Mc.run] argument set (the seed is the regime's). *)
type mc_args = { clients : int; callbacks : bool; read_pct : int; snapshot : bool }

type mc = {
  runs : mc_args list;
  fields : string list;  (** per-run fields, by name from [mc_field] *)
  summary : Mc.stats list -> (string * json) list;  (** header fields before ["runs"] *)
}

type workload =
  | Oo7 of oo7
  | Mc of mc
  | Index of { log_scales : int list; btree_scales : int list }

type regime = {
  file : string;
  title : string;  (** one line for the bench report *)
  benchmark : string;
  database : string option;
  seed : int;
  workload : workload;
}

(* ------------------------------------------------------------------ *)
(* Memoised measurement.                                               *)

let memo tbl key f =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = f () in
    Hashtbl.add tbl key v;
    v

let suite_memo : (suite * int, Exp.suite) Hashtbl.t = Hashtbl.create 8

(** [run_suite ~seed s] builds [s.system] on [s.database] and runs
    [s.ops]; the same suite and seed run once per process. *)
let run_suite ?(progress = fun (_ : string) -> ()) ~seed (s : suite) =
  memo suite_memo (s, seed) (fun () ->
      progress (Printf.sprintf "building a %s database..." s.database.Oo7.Params.name);
      let sys =
        match s.system with
        | Qs config -> System.make_qs ~config s.database ~seed
        | E -> System.make_e s.database ~seed
      in
      progress (Printf.sprintf "running %d ops on %s..." (List.length s.ops) sys.System.name);
      Exp.run_suite ~seed ~hot_reps:s.hot_reps sys ~ops:s.ops)

let mc_memo : (mc_args * int, Mc.stats) Hashtbl.t = Hashtbl.create 8

let run_mc ?(progress = fun (_ : string) -> ()) ~seed (a : mc_args) =
  memo mc_memo (a, seed) (fun () ->
      progress
        (Printf.sprintf "running %d-client contention (callbacks %b, read_pct %d, snapshot %b)..."
           a.clients a.callbacks a.read_pct a.snapshot);
      Mc.run ~clients:a.clients ~seed ~callbacks:a.callbacks ~read_pct:a.read_pct
        ~snapshot:a.snapshot ())

(* ------------------------------------------------------------------ *)
(* OO7 rows.                                                           *)

let small_ops = Exp.traversal_ops @ Exp.query_ops @ Exp.update_ops

(** [system]'s stock suite on [db]: every op, hot_reps 3, as
    [BENCH_oo7.json] runs it. Stock QS's is the answer oracle for every
    OO7 regime on the same database. *)
let stock_suite system db = { system; database = db; ops = small_ops; hot_reps = 3 }

let qs_default = Qs Quickstore.Qs_config.default

exception Wrong_answer of string

(** Every system must return the same [result] per op as [oracle]
    (the OO7 code is shared, so a disagreement is a wrong answer, not
    a cost difference). Ops the oracle did not run are skipped. *)
let check_answers ~(oracle : Exp.suite) (suites : Exp.suite list) =
  List.iter
    (fun (s : Exp.suite) ->
      List.iter
        (fun (op, (r : System.run_result)) ->
          let answer = r.System.cold.Measure.result in
          match List.assoc_opt op oracle.Exp.results with
          | Some (o : System.run_result) when o.System.cold.Measure.result <> answer ->
            raise
              (Wrong_answer
                 (Printf.sprintf "%s answers %s with %d, %s with %d" s.Exp.name op answer
                    oracle.Exp.name o.System.cold.Measure.result))
          | Some _ | None -> ())
        s.Exp.results)
    suites

let op_fields (op, (r : System.run_result)) =
  let m = r.System.cold in
  let opt_ms = function Some (m : Measure.t) -> Float m.Measure.ms | None -> Null in
  [ ("op", Str op)
  ; ("cold_ms", Float m.Measure.ms)
  ; ("hot_ms", opt_ms r.System.hot)
  ; ("commit_ms", opt_ms r.System.commit)
  ; ("result", Int m.Measure.result)
  ; ("reads", Int m.Measure.client_reads)
  ; ("reads_data", Int m.Measure.reads_data)
  ; ("reads_map", Int m.Measure.reads_map)
  ; ("reads_index", Int m.Measure.reads_index)
  ; ("writes", Int m.Measure.client_writes)
  ; ( "commit_writes"
    , Int (match r.System.commit with Some c -> c.Measure.client_writes | None -> 0) )
  ; ("faults", Int r.System.cold_faults) ]

(* Fastest-to-slowest by total response (cold + commit); ties keep the
   suite order. These are the paper's win/loss relationships — the
   part of bench shape that must never drift silently. *)
let ordering (suites : Exp.suite list) op =
  let totals =
    List.map (fun s -> (s.Exp.name, System.total_response (Exp.get s op))) suites
  in
  let sorted = List.stable_sort (fun (_, a) (_, b) -> compare a b) totals in
  Obj [ ("op", Str op); ("fastest_to_slowest", List (List.map (fun (n, _) -> Str n) sorted)) ]

(* The region-ship counters the diff-ship baseline exists to pin: how
   many dirty pages the commit shipped as regions and how many payload
   bytes that took (0 for read-only ops). *)
let region_ship_fields (r : System.run_result) =
  let ships, bytes =
    match r.System.commit with
    | Some c -> (c.Measure.region_ships, c.Measure.region_bytes)
    | None -> (0, 0)
  in
  [ ("commit_region_ships", Int ships); ("commit_region_bytes", Int bytes) ]

(* ------------------------------------------------------------------ *)
(* Multi-client rows: one table of every [Mc.stats] field a baseline
   pins; each regime names the fields it renders, in order. *)

let mc_field (s : Mc.stats) = function
  | "mode" ->
    Str
      (if s.Mc.read_pct > 0 then if s.Mc.snapshot then "snapshot" else "locking"
       else if s.Mc.callbacks then "callback"
       else "reset")
  | "clients" -> Int s.Mc.clients
  | "txns_per_client" -> Int s.Mc.txns_per_client
  | "read_pct" -> Int s.Mc.read_pct
  | "committed" -> Int s.Mc.committed
  | "read_txns" -> Int s.Mc.read_txns
  | "deadlock_retries" -> Int s.Mc.deadlock_retries
  | "lock_waits" -> Int s.Mc.lock_waits
  | "lock_wait_ms" -> Float s.Mc.lock_wait_ms
  | "retry_ms" -> Float s.Mc.retry_ms
  | "total_ms" -> Float s.Mc.total_ms
  | "reads" -> Int s.Mc.reads
  | "writes" -> Int s.Mc.writes
  | "retained_hits" -> Int s.Mc.retained_hits
  | "callbacks_sent" -> Int s.Mc.callbacks_sent
  | "callbacks_deferred" -> Int s.Mc.callbacks_deferred
  | "gc_rides" -> Int s.Mc.gc_rides
  | "gc_cross_rides" -> Int s.Mc.gc_cross_rides
  | "snapshot_reads" -> Int s.Mc.snapshot_reads
  | "snapshot_deltas" -> Int s.Mc.snapshot_deltas
  | "snapshot_retries" -> Int s.Mc.snapshot_retries
  | "per_client" ->
    List
      (List.map
         (fun (c : Mc.client_stats) ->
           Obj
             [ ("name", Str c.Mc.cs_name)
             ; ("committed", Int c.Mc.cs_committed)
             ; ("retries", Int c.Mc.cs_retries) ])
         s.Mc.per_client)
  | "trace_events" -> Int s.Mc.trace_events
  | "trace_digest" -> Str s.Mc.trace_digest
  | "world_digest" -> Str s.Mc.world_digest
  | f -> invalid_arg ("Bench_json.mc_field: unknown field " ^ f)

let find_run what pred runs =
  match List.find_opt pred runs with
  | Some s -> s
  | None -> invalid_arg ("Bench_json: no " ^ what ^ " run")

(* Callback locking vs reset-per-transaction: what inter-transaction
   caching buys (retained hits, server page reads avoided and the bytes
   they would have shipped). *)
let callback_summary runs =
  let off = find_run "reset" (fun (s : Mc.stats) -> not s.Mc.callbacks) runs
  and on = find_run "callback" (fun (s : Mc.stats) -> s.Mc.callbacks) runs in
  let reads_saved = off.Mc.reads - on.Mc.reads in
  [ ("reads_saved", Int reads_saved)
  ; ("read_bytes_saved", Int (reads_saved * Esm.Page.page_size))
  ; ( "retained_hit_rate"
    , Float
        (float_of_int on.Mc.retained_hits /. float_of_int (on.Mc.retained_hits + on.Mc.reads)) ) ]

(* Snapshot scans vs locking scans: reader lock waits and deadlock
   retries collapse, and [world_digest_equal] proves the writers'
   committed effects are byte-identical in both regimes (the rng draw
   sequences are identical and the write partitions disjoint, so a
   divergence is a correctness bug, not noise). *)
let snapshot_summary runs =
  let locking = find_run "locking" (fun (s : Mc.stats) -> not s.Mc.snapshot) runs
  and snap = find_run "snapshot" (fun (s : Mc.stats) -> s.Mc.snapshot) runs in
  [ ("lock_waits_locking", Int locking.Mc.lock_waits)
  ; ("lock_waits_snapshot", Int snap.Mc.lock_waits)
  ; ( "lock_wait_reduction"
    , Float
        (if snap.Mc.lock_waits = 0 then Float.of_int locking.Mc.lock_waits
         else float_of_int locking.Mc.lock_waits /. float_of_int snap.Mc.lock_waits) )
  ; ("deadlock_retries_locking", Int locking.Mc.deadlock_retries)
  ; ("deadlock_retries_snapshot", Int snap.Mc.deadlock_retries)
  ; ("world_digest_equal", Bool (String.equal locking.Mc.world_digest snap.Mc.world_digest)) ]

(* ------------------------------------------------------------------ *)
(* The log-index baseline: lookup cost must stay flat as the index
   grows.

   For each scale the run builds a fresh index — the log-structured
   [Esm.Log_index] at 10^4..10^6 bindings, the B-tree oracle (with a
   small fan-out, so depth growth is visible at bench scale) at
   10^4..10^5 — and then measures a fixed number of cold lookups:
   client cache dropped before every probe, so each one pays the full
   root-to-binding path. Everything recorded is simulated (Simclock
   microseconds and server read counters, no wall clock). The summary
   pins the claim directly: the ratio of the slowest to the fastest
   log-index lookup across two decades of growth
   ([log_lookup_spread]) must stay under 2, while the B-tree's
   per-lookup reads grow with depth. *)

let index_klen = 8
let index_log_pages = 256
let index_btree_cap = 16
let index_lookup_count = 200

type index_run = {
  ir_system : string;  (* "log" | "btree" *)
  ir_n : int;  (* bindings in the index *)
  ir_insert_us : float;  (* amortized simulated µs per insert, merges included *)
  ir_lookup_us : float;  (* simulated µs per cold lookup *)
  ir_lookup_reads : float;  (* server page reads per cold lookup *)
  ir_generation : int;  (* merges folded (0 for the B-tree) *)
  ir_log_len : int;  (* unmerged log tail (0 for the B-tree) *)
}

(* One measured build+probe: [insert] and [lookup] close over whichever
   index is under test. Inserts run in committed batches with a
   checkpoint after each, so the in-memory WAL stays bounded at the
   10^6 scale. [settle] runs once between the insert and lookup
   phases, in its own committed transaction and outside both timed
   windows — the log index uses it to fold its tail so every scale
   probes the steady state the background merge maintains. *)
let index_measure ?settle ~server ~client ~n ~insert ~lookup () =
  let clock = Esm.Server.clock server in
  let rng = Qs_util.Rng.create (0x1dc5 + n) in
  let order = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Qs_util.Rng.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let batch = 500 in
  let t0 = Simclock.Clock.total_us clock in
  let i = ref 0 in
  while !i < n do
    let stop = min n (!i + batch) in
    Esm.Client.begin_txn client;
    while !i < stop do
      insert order.(!i);
      incr i
    done;
    Esm.Client.commit client;
    Esm.Server.checkpoint server
  done;
  let insert_us = (Simclock.Clock.total_us clock -. t0) /. float_of_int n in
  (match settle with
   | None -> ()
   | Some f ->
     Esm.Client.begin_txn client;
     f ();
     Esm.Client.commit client;
     Esm.Server.checkpoint server);
  let c0 = (Esm.Server.counters server).Esm.Server.client_reads in
  let t1 = Simclock.Clock.total_us clock in
  for k = 0 to index_lookup_count - 1 do
    Esm.Client.reset_cache client;
    Esm.Client.begin_txn client;
    let key = Qs_util.Rng.int rng n in
    let got = lookup key in
    if not got then invalid_arg (Printf.sprintf "index bench: binding %d of %d missing" key n);
    ignore k;
    Esm.Client.commit client
  done;
  let lookup_us = (Simclock.Clock.total_us clock -. t1) /. float_of_int index_lookup_count in
  let reads = (Esm.Server.counters server).Esm.Server.client_reads - c0 in
  (insert_us, lookup_us, float_of_int reads /. float_of_int index_lookup_count)

let index_oid i = Esm.Oid.make ~page:(1 + (i / 8)) ~slot:(i mod 8) ~unique:i ()

let index_server () =
  let server =
    Esm.Server.create ~frames:512 ~clock:(Simclock.Clock.create ())
      ~cm:Simclock.Cost_model.default ()
  in
  (server, Esm.Client.create ~frames:1536 server)

let ikey = Esm.Btree.key_of_int ~klen:index_klen

let log_index_run ~progress n =
  progress (Printf.sprintf "building log index with %d bindings..." n);
  let server, client = index_server () in
  Esm.Client.begin_txn client;
  let idx = Esm.Log_index.create ~log_pages:index_log_pages client ~klen:index_klen in
  Esm.Client.commit client;
  let insert i = Esm.Log_index.insert idx ~key:(ikey i) ~oid:(index_oid i) in
  let lookup i = Esm.Log_index.lookup idx ~key:(ikey i) <> None in
  let insert_us, lookup_us, lookup_reads =
    index_measure ~server ~client ~n ~insert ~lookup
      ~settle:(fun () -> Esm.Log_index.merge ~force:true idx) ()
  in
  Esm.Client.begin_txn client;
  let st = Esm.Log_index.stats idx in
  Esm.Client.commit client;
  { ir_system = "log"
  ; ir_n = n
  ; ir_insert_us = insert_us
  ; ir_lookup_us = lookup_us
  ; ir_lookup_reads = lookup_reads
  ; ir_generation = st.Esm.Log_index.generation
  ; ir_log_len = st.Esm.Log_index.log_len }

let btree_index_run ~progress n =
  progress (Printf.sprintf "building b-tree with %d bindings..." n);
  let server, client = index_server () in
  Esm.Btree.install_undo_handler client;
  Esm.Client.begin_txn client;
  let bt = Esm.Btree.create ~cap:index_btree_cap client ~klen:index_klen in
  Esm.Client.commit client;
  let insert i = Esm.Btree.insert bt ~key:(ikey i) ~oid:(index_oid i) in
  let lookup i = Esm.Btree.lookup_all bt ~key:(ikey i) <> [] in
  let insert_us, lookup_us, lookup_reads = index_measure ~server ~client ~n ~insert ~lookup () in
  { ir_system = "btree"
  ; ir_n = n
  ; ir_insert_us = insert_us
  ; ir_lookup_us = lookup_us
  ; ir_lookup_reads = lookup_reads
  ; ir_generation = 0
  ; ir_log_len = 0 }

let index_fields r =
  [ ("system", Str r.ir_system)
  ; ("n", Int r.ir_n)
  ; ("insert_us", Float r.ir_insert_us)
  ; ("lookup_us", Float r.ir_lookup_us)
  ; ("lookup_reads", Float r.ir_lookup_reads)
  ; ("generation", Int r.ir_generation)
  ; ("log_len", Int r.ir_log_len) ]

let index_summary runs =
  let log_runs = List.filter (fun r -> r.ir_system = "log") runs in
  let spread sel =
    match List.map sel log_runs with
    | [] -> 0.0
    | v :: _ as vs -> List.fold_left Float.max v vs /. List.fold_left Float.min v vs
  in
  [ ("klen", Int index_klen)
  ; ("log_pages", Int index_log_pages)
  ; ("btree_cap", Int index_btree_cap)
  ; ("lookups", Int index_lookup_count)
  ; ("log_lookup_spread", Float (spread (fun r -> r.ir_lookup_us)))
  ; ("log_lookup_reads_spread", Float (spread (fun r -> r.ir_lookup_reads)))
  ; ("log_lookup_flat_2x", Bool (spread (fun r -> r.ir_lookup_us) < 2.0)) ]

(* ------------------------------------------------------------------ *)
(* The regime table.                                                   *)

let small = Oo7.Params.small
let no_extra (_ : System.run_result) = []

module Qc = Quickstore.Qs_config

let qs_b = Qs { Qc.default with Qc.mode = Qc.Big_objects }

(** The stock small-database E suite: rendered once, in
    [BENCH_oo7.json], and ranked as the E rival of the variant QS
    regimes. *)
let stock_e = stock_suite E small

let seed = 1234

let mc4 ?(callbacks = false) ?(read_pct = 0) ?(snapshot = false) () =
  { clients = 4; callbacks; read_pct; snapshot }

let regimes =
  [ { file = "BENCH_oo7.json"
    ; title = "OO7 small database: QS, E and QS-B, every op, hot_reps 3"
    ; benchmark = "OO7"
    ; database = Some "small"
    ; seed
    ; workload =
        Oo7
          { db = small
          ; systems = [ qs_default; E; qs_b ]
          ; ops = small_ops
          ; hot_reps = 3
          ; rivals = []
          ; extra = no_extra } }
  ; { file = "BENCH_oo7_prefetch.json"
    ; title =
        "QS with fault-time page-run prefetch (run max 8) + WAL group commit, traversals and \
         updates, ranked against stock E"
    ; benchmark = "OO7+prefetch"
    ; database = Some "small"
    ; seed
    ; workload =
        Oo7
          { db = small
          ; systems =
              [ Qs { Qc.default with Qc.prefetch_run_max = 8; Qc.group_commit = true } ]
          ; ops = Exp.traversal_ops @ Exp.update_ops
          ; hot_reps = 1
          ; rivals = [ stock_e ]
          ; extra = no_extra } }
  ; { file = "BENCH_oo7_diffship.json"
    ; title =
        "QS with the diff-shipping commit (region ships + WAL-force pipelining), T1 and updates, \
         ranked against stock E"
    ; benchmark = "OO7+diffship"
    ; database = Some "small"
    ; seed
    ; workload =
        Oo7
          { db = small
          ; systems = [ Qs { Qc.default with Qc.diff_ship = true } ]
          ; ops = "T1" :: Exp.update_ops
          ; hot_reps = 1
          ; rivals = [ stock_e ]
          ; extra = region_ship_fields } }
  ; { file = "BENCH_oo7_multi.json"
    ; title =
        "Multi-user hot-page contention at 1, 2 and 4 clients (trace digest pins the interleaving)"
    ; benchmark = "OO7-multi"
    ; database = Some "mc-hotskew"
    ; seed
    ; workload =
        Mc
          { runs = List.map (fun clients -> { (mc4 ()) with clients }) [ 1; 2; 4 ]
          ; fields =
              [ "clients"; "txns_per_client"; "committed"; "deadlock_retries"; "lock_waits"
              ; "lock_wait_ms"; "retry_ms"; "total_ms"; "reads"; "writes"; "per_client"
              ; "trace_events"; "trace_digest" ]
          ; summary = (fun _ -> []) } }
  ; { file = "BENCH_oo7_callback.json"
    ; title = "4 clients under reset-per-transaction vs callback locking"
    ; benchmark = "OO7-callback"
    ; database = Some "mc-hotskew"
    ; seed
    ; workload =
        Mc
          { runs = [ mc4 (); mc4 ~callbacks:true () ]
          ; fields =
              [ "mode"; "clients"; "committed"; "deadlock_retries"; "reads"; "writes"
              ; "retained_hits"; "callbacks_sent"; "callbacks_deferred"; "gc_rides"
              ; "gc_cross_rides"; "total_ms"; "trace_digest" ]
          ; summary = callback_summary } }
  ; { file = "BENCH_oo7_snapshot.json"
    ; title = "4 clients, 80% read-only scans, locking scans vs MVCC snapshot scans"
    ; benchmark = "OO7-snapshot"
    ; database = Some "mc-hotskew"
    ; seed
    ; workload =
        Mc
          { runs = [ mc4 ~read_pct:80 (); mc4 ~read_pct:80 ~snapshot:true () ]
          ; fields =
              [ "mode"; "clients"; "read_pct"; "committed"; "read_txns"; "deadlock_retries"
              ; "lock_waits"; "lock_wait_ms"; "retry_ms"; "reads"; "writes"; "snapshot_reads"
              ; "snapshot_deltas"; "snapshot_retries"; "total_ms"; "world_digest"
              ; "trace_digest" ]
          ; summary = snapshot_summary } }
  ; { file = "BENCH_index.json"
    ; title =
        "200 cold lookups per scale: log-structured index (flat) vs small-fan-out B-tree (depth)"
    ; benchmark = "index"
    ; database = None
    ; seed
    ; workload =
        Index { log_scales = [ 10_000; 100_000; 1_000_000 ]; btree_scales = [ 10_000; 100_000 ] }
    } ]

(* ------------------------------------------------------------------ *)
(* Measuring and rendering a regime.                                   *)

type measured = {
  doc : json;  (** the whole file *)
  rows : (string * json) list list;  (** flat per-row fields, for the bench table *)
  summary : (string * json) list;  (** header fields derived from the rows *)
}

let measure ?(progress = fun (_ : string) -> ()) (r : regime) =
  let header =
    (("benchmark", Str r.benchmark)
     :: (match r.database with Some d -> [ ("database", Str d) ] | None -> []))
    @ [ ("seed", Int r.seed) ]
  in
  let with_runs ~summary rows =
    { doc = Obj (header @ summary @ [ ("runs", List (List.map (fun f -> Obj f) rows)) ])
    ; rows
    ; summary }
  in
  match r.workload with
  | Oo7 w ->
    let run = run_suite ~progress ~seed:r.seed in
    let suites =
      List.map
        (fun system -> run { system; database = w.db; ops = w.ops; hot_reps = w.hot_reps })
        w.systems
    in
    let rivals = List.map run w.rivals in
    check_answers ~oracle:(run (stock_suite qs_default w.db)) (suites @ rivals);
    let op_obj op_r = op_fields op_r @ w.extra (snd op_r) in
    let system_json (s : Exp.suite) =
      Obj
        [ ("name", Str s.Exp.name)
        ; ("db_mb", Float s.Exp.db_mb)
        ; ("ops", List (List.map (fun op_r -> Obj (op_obj op_r)) s.Exp.results)) ]
    in
    { doc =
        Obj
          (header
          @ [ ("hot_reps", Int w.hot_reps)
            ; ("systems", List (List.map system_json suites))
            ; ("orderings", List (List.map (ordering (suites @ rivals)) w.ops)) ])
    ; rows =
        List.concat_map
          (fun (s : Exp.suite) ->
            List.map (fun op_r -> ("system", Str s.Exp.name) :: op_obj op_r) s.Exp.results)
          suites
    ; summary = [] }
  | Mc m ->
    let runs = List.map (run_mc ~progress ~seed:r.seed) m.runs in
    with_runs ~summary:(m.summary runs)
      (List.map (fun s -> List.map (fun f -> (f, mc_field s f)) m.fields) runs)
  | Index { log_scales; btree_scales } ->
    let logs = List.map (log_index_run ~progress) log_scales in
    let btrees = List.map (btree_index_run ~progress) btree_scales in
    let runs = logs @ btrees in
    with_runs ~summary:(index_summary runs) (List.map index_fields runs)

(** The committed file's exact bytes. *)
let render m = to_string m.doc ^ "\n"

(** A plain-text table of the regime's rows (list-valued fields are
    left to the JSON), followed by its summary fields. *)
let table (r : regime) m =
  let cell = function
    | Float f -> Printf.sprintf "%.1f" f
    | Str s -> s
    | (Null | Bool _ | Int _ | List _ | Obj _) as v -> to_string v
  in
  let rows = List.map (List.filter (function _, (List _ | Obj _) -> false | _ -> true)) m.rows in
  let header = match rows with [] -> [] | row :: _ -> List.map fst row in
  Report.render ~title:r.title ~header ~rows:(List.map (List.map (fun (_, v) -> cell v)) rows)
  ^ String.concat "" (List.map (fun (k, v) -> Printf.sprintf "%s: %s\n" k (to_string v)) m.summary)
