(* Shared result type, statistics and metric helpers. *)

type metric = { name : string; unit : string; value : float; det : bool }
(* [det]: a pure function of (code, seed, run shape), compared exactly
   by the determinism self-test. *)

let m ?(det = false) name unit value = { name; unit; value; det }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
  stream_digest : string;  (** digest of the generated txn stream *)
}

let now_ns = Tracer.now_ns
let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* Linear interpolation between closest ranks, as numpy's default. *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let pos = p *. float_of_int (n - 1) in
    let i = truncate pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))
  end

let median xs = percentile xs 0.5
let per n x = if n = 0 then 0.0 else x /. float_of_int n
let peak_heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Runtime counters, read as deltas around measured transactions. *)
let gc_minor () = Gc.minor_words ()
let gc_promoted () = (Gc.quick_stat ()).Gc.promoted_words
let gc_majors () = float_of_int (Gc.quick_stat ()).Gc.major_collections

(** The eight end-to-end metrics every workload reports. *)
let end_to_end ~setup_s ~txn_per_s ~lat_ms ~sim_ms_per_txn ~io_per_txn ~attempted ~failed =
  [ m "setup_s" "s" setup_s
  ; m "txn_per_s" "1/s" txn_per_s
  ; m "txn_wall_ms_p50" "ms" (percentile lat_ms 0.5)
  ; m "txn_wall_ms_p90" "ms" (percentile lat_ms 0.9)
  ; m ~det:true "sim_ms_per_txn" "ms" sim_ms_per_txn
  ; m ~det:true "server_io_per_txn" "count" io_per_txn
  ; m "peak_heap_mb" "MB" (peak_heap_mb ())
  ; m ~det:true "failed_frac" "ratio" (per attempted (float_of_int failed)) ]

(** Self time per layer of the store-boundary tracer, ms per txn. *)
let self_times ~txns =
  List.init Tracer.n_layers (fun l ->
      m
        ("self." ^ Tracer.layer_names.(l) ^ "_ms")
        "ms"
        (per txns (float_of_int Tracer.self_ns.(l) /. 1e6)))

(* --- public counters read as deltas --- *)

module Clock = Simclock.Clock
module Cat = Simclock.Category
module Server = Esm.Server

type probes = (string * (unit -> float)) array

let fi = float_of_int

(** Counters every workload has: the simulated clock per category, the
    server's request counters, its disk and WAL, and the runtime. *)
let esm_probes ~server ~clock =
  let c () = Server.counters server in
  let cat k () = Clock.category_us clock k in
  [ ("sim_us", fun () -> Clock.total_us clock)
  ; ( "server_io"
    , fun () ->
        let c = c () in
        fi (c.Server.client_reads + c.Server.snapshot_reads + c.Server.client_writes + c.Server.client_region_ships) )
  ; ("reads_data", fun () -> fi (c ()).Server.client_reads_data)
  ; ("reads_map", fun () -> fi (c ()).Server.client_reads_map)
  ; ("reads_index", fun () -> fi (c ()).Server.client_reads_index)
  ; ("writes", fun () -> fi ((c ()).Server.client_writes + (c ()).Server.client_region_ships))
  ; ("pool_hits", fun () -> fi (c ()).Server.server_pool_hits)
  ; ("disk_reads", fun () -> fi (Esm.Disk.reads (Server.disk server)))
  ; ("callbacks_sent", fun () -> fi (c ()).Server.callbacks_sent)
  ; ("callbacks_deferred", fun () -> fi (c ()).Server.callbacks_deferred)
  ; ("gc_rides", fun () -> fi (c ()).Server.gc_rides)
  ; ("snapshot_reads", fun () -> fi (c ()).Server.snapshot_reads)
  ; ("snapshot_deltas", fun () -> fi (c ()).Server.snapshot_deltas_applied)
  ; ("wal_update_bytes", fun () -> fi (Esm.Wal.update_bytes (Server.wal server)))
  ; ("lock_waits", fun () -> fi (Clock.category_events clock Cat.Lock_wait))
  ; ("cat_lock_wait", cat Cat.Lock_wait)
  ; ("cat_lock_acquire", cat Cat.Lock_acquire)
  ; ("cat_page_fault", cat Cat.Page_fault)
  ; ("cat_mmap", cat Cat.Mmap_call)
  ; ("cat_swizzle", cat Cat.Swizzle)
  ; ("cat_recovery_copy", cat Cat.Write_fault_copy)
  ; ("cat_diff", cat Cat.Diff)
  ; ("cat_map_update", cat Cat.Map_update)
  ; ("cat_log_write", cat Cat.Log_write)
  ; ("cat_commit_flush", cat Cat.Commit_flush)
  ; ("cat_index_op", cat Cat.Index_op)
  ; ("cat_data_io", cat Cat.Data_io)
  ; ("cat_map_io", cat Cat.Map_io)
  ; ("gc_minor", gc_minor)
  ; ("gc_promoted", gc_promoted)
  ; ("gc_majors", gc_majors) ]

let read (ps : probes) = Array.map (fun (_, g) -> g ()) ps

(** [acc += now - before], element-wise. *)
let add_delta acc (ps : probes) before = Array.iteri (fun i (_, g) -> acc.(i) <- acc.(i) +. (g () -. before.(i))) ps

let getter (ps : probes) acc name =
  let rec find i =
    if i = Array.length ps then invalid_arg ("Common.getter: no probe " ^ name)
    else if String.equal (fst ps.(i)) name then acc.(i)
    else find (i + 1)
  in
  find 0

(** Every per-layer metric. [get] reads a counter summed over [txns]
    traced transactions, [get_plain] over [plain_txns] untraced ones
    (runtime counters, so the tracer's own allocation stays out). *)
let layer_metrics ~get ~txns ~get_plain ~plain_txns ~retries ~retained_hits ~snapshot_retries
    ~overhead_pct =
  let pt name = per txns (get name) in
  let ms name = per txns (get name) /. 1000.0 in
  let calls l = float_of_int Tracer.calls.(l) in
  let busy l = float_of_int Tracer.busy_ns.(l) in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let hits = get "pool_hits" in
  let reads = get "reads_data" +. get "reads_map" +. get "reads_index" in
  let c = Tracer.client_calls and cns = Tracer.client_ns in
  let client_calls = Array.fold_left ( + ) 0 c and client_ns = Array.fold_left ( + ) 0 cns in
  [ m ~det:true "store.deref_calls" "count" (per txns (calls Tracer.l_deref))
  ; m "store.deref_wall_ns" "ns" (ratio (busy Tracer.l_deref) (calls Tracer.l_deref))
  ; m ~det:true "store.deref_sim_ms" "ms" (per txns (Tracer.sim_us.(Tracer.l_deref) /. 1000.0))
  ; m ~det:true "store.hard_faults" "count" (pt "hard_faults")
  ; m ~det:true "store.soft_faults" "count" (pt "soft_faults")
  ; m ~det:true "vmsim.page_fault_sim_ms" "ms" (ms "cat_page_fault")
  ; m ~det:true "vmsim.mmap_sim_ms" "ms" (ms "cat_mmap")
  ; m ~det:true "store.swizzle_sim_ms" "ms" (ms "cat_swizzle")
  ; m ~det:true "store.pages_swizzled" "count" (pt "pages_swizzled")
  ; m ~det:true "store.write_calls" "count" (per txns (calls Tracer.l_write))
  ; m "store.write_wall_ms" "ms" (per txns (busy Tracer.l_write /. 1e6))
  ; m ~det:true "store.write_faults" "count" (pt "write_faults")
  ; m ~det:true "store.recovery_copy_sim_ms" "ms" (ms "cat_recovery_copy")
  ; m "store.commit_wall_ms" "ms" (per txns (busy Tracer.l_commit /. 1e6))
  ; m ~det:true "store.commit_sim_ms" "ms" (per txns (Tracer.sim_us.(Tracer.l_commit) /. 1000.0))
  ; m ~det:true "store.pages_diffed" "count" (pt "pages_diffed")
  ; m ~det:true "store.diff_log_records" "count" (pt "diff_log_records")
  ; m ~det:true "store.diff_sim_ms" "ms" (ms "cat_diff")
  ; m ~det:true "store.map_update_sim_ms" "ms" (ms "cat_map_update")
  ; m ~det:true "store.rec_buffer_overflows" "count" (pt "rec_buffer_overflows")
  ; m ~det:true "index.lookup_calls" "count" (per txns (calls Tracer.l_lookup))
  ; m "index.lookup_wall_us" "us" (ratio (busy Tracer.l_lookup /. 1000.0) (calls Tracer.l_lookup))
  ; m "index.range_wall_ms" "ms" (per txns (float_of_int Tracer.self_ns.(Tracer.l_range) /. 1e6))
  ; m ~det:true "index.insert_calls" "count" (per txns (calls Tracer.l_insert))
  ; m "index.insert_wall_us" "us" (ratio (busy Tracer.l_insert /. 1000.0) (calls Tracer.l_insert))
  ; m "index.delete_wall_us" "us" (ratio (busy Tracer.l_delete /. 1000.0) (calls Tracer.l_delete))
  ; m ~det:true "index.reads_per_lookup" "ratio" (ratio (float_of_int !Tracer.index_reads) (calls Tracer.l_lookup))
  ; m ~det:true "index.op_sim_ms" "ms" (ms "cat_index_op")
  ; m ~det:true "server.reads_data" "count" (pt "reads_data")
  ; m ~det:true "server.reads_map" "count" (pt "reads_map")
  ; m ~det:true "server.reads_index" "count" (pt "reads_index")
  ; m ~det:true "server.writes" "count" (pt "writes")
  ; m ~det:true "server.pool_hit_ratio" "ratio" (ratio hits (hits +. get "disk_reads"))
  ; m ~det:true "server.data_io_sim_ms" "ms" (ms "cat_data_io")
  ; m ~det:true "server.map_io_sim_ms" "ms" (ms "cat_map_io")
  ; m ~det:true "wal.update_bytes_per_txn" "B" (pt "wal_update_bytes")
  ; m ~det:true "wal.log_write_sim_ms" "ms" (ms "cat_log_write")
  ; m ~det:true "wal.commit_flush_sim_ms" "ms" (ms "cat_commit_flush")
  ; m ~det:true "lock_mgr.waits" "count" (pt "lock_waits")
  ; m ~det:true "lock_mgr.wait_sim_ms" "ms" (ms "cat_lock_wait")
  ; m ~det:true "lock_mgr.acquire_sim_ms" "ms" (ms "cat_lock_acquire")
  ; m ~det:true "lock_mgr.retries_per_commit" "ratio" (per txns retries)
  ; m ~det:true "client.retained_hit_ratio" "ratio" (ratio retained_hits (retained_hits +. reads))
  ; m ~det:true "server.callbacks_sent" "count" (pt "callbacks_sent")
  ; m ~det:true "server.callbacks_deferred" "count" (pt "callbacks_deferred")
  ; m ~det:true "server.gc_rides" "count" (pt "gc_rides")
  ; m ~det:true "version_store.snapshot_reads" "count" (pt "snapshot_reads")
  ; m ~det:true "version_store.deltas_per_read" "ratio" (ratio (get "snapshot_deltas") (get "snapshot_reads"))
  ; m ~det:true "client.snapshot_retries" "count" (per txns snapshot_retries)
  ; m ~det:true "client.calls" "count" (per txns (float_of_int client_calls))
  ; m "client.call_wall_ms" "ms" (per txns (float_of_int client_ns /. 1e6))
  ; m "gc.minor_words_per_txn" "words" (per plain_txns (get_plain "gc_minor"))
  ; m "gc.promoted_words_per_txn" "words" (per plain_txns (get_plain "gc_promoted"))
  ; m "gc.major_collections" "count" (per plain_txns (get_plain "gc_majors"))
  ; m "trace.overhead_pct" "%" overhead_pct ]
  @ self_times ~txns

(** QuickStore's own statistics; zero for workloads without a store. *)
let store_stats =
  let open Quickstore.Store in
  [ ("hard_faults", fun s -> s.hard_faults)
  ; ("soft_faults", fun s -> s.soft_faults)
  ; ("pages_swizzled", fun s -> s.pages_swizzled)
  ; ("write_faults", fun s -> s.write_faults)
  ; ("pages_diffed", fun s -> s.pages_diffed)
  ; ("diff_log_records", fun s -> s.diff_log_records)
  ; ("rec_buffer_overflows", fun s -> s.rec_buffer_overflows) ]

let store_probes st = List.map (fun (n, g) -> (n, fun () -> fi (g (Quickstore.Store.stats st)))) store_stats
let no_store_probes = List.map (fun (n, _) -> (n, fun () -> 0.0)) store_stats
