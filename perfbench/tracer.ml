(* Outside-in tracing for the traced benchmark run.

   Everything here sits at the boundary between the benchmark and the
   program's public functions: nothing inside lib/ is instrumented and
   Qs_trace stays disarmed. Two mechanisms:

   - A layer stack. Each wrapped call pushes a frame for its layer on
     entry and pops it on exit, adding the wall time to the layer's
     busy total and (busy minus time spent in nested frames) to its
     self time. The benchmark opens an [app] frame per transaction, so
     OO7 application code is the root layer. High-frequency calls
     (dereferences, field writes) only touch these counters.
   - Spans for transactions, cold/hot/commit phases, commit calls and
     index calls, kept in memory and written as a Chrome trace at exit.

   Simulated time is split by layer with a clock observer that adds
   every charge to the innermost open frame's layer. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* --- layers --- *)

let l_app = 0
let l_deref = 1
let l_write = 2
let l_commit = 3
let l_lookup = 4
let l_range = 5
let l_insert = 6
let l_delete = 7
let l_reset = 8
let l_other = 9
let n_layers = 10

let layer_names =
  [| "app"; "deref"; "write"; "commit"; "index_lookup"; "index_range"; "index_insert"
   ; "index_delete"; "reset"; "other" |]

let calls = Array.make n_layers 0
let busy_ns = Array.make n_layers 0
let self_ns = Array.make n_layers 0
let sim_us = Array.make n_layers 0.0
let index_reads = ref 0 (* server index-page reads issued inside index_lookup *)

let max_depth = 64
let st_layer = Array.make max_depth 0
let st_start = Array.make max_depth 0
let st_child = Array.make max_depth 0
let depth = ref 0

let enter l =
  let d = !depth in
  st_layer.(d) <- l;
  st_child.(d) <- 0;
  depth := d + 1;
  st_start.(d) <- now_ns ()

let leave () =
  let t = now_ns () in
  let d = !depth - 1 in
  depth := d;
  let l = st_layer.(d) in
  let dt = t - st_start.(d) in
  calls.(l) <- calls.(l) + 1;
  busy_ns.(l) <- busy_ns.(l) + dt;
  self_ns.(l) <- self_ns.(l) + dt - st_child.(d);
  if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dt

let observe _cat n us =
  let l = if !depth = 0 then l_other else st_layer.(!depth - 1) in
  sim_us.(l) <- sim_us.(l) +. (float_of_int n *. us)

(** Attribute [clock]'s charges to the open layer until [disarm]. *)
let arm clock = Simclock.Clock.set_observer clock (Some observe)

let disarm clock = Simclock.Clock.set_observer clock None

(* --- spans --- *)

let span_cap = 400_000
let sp_name = Array.make span_cap ""
let sp_start = Array.make span_cap 0
let sp_stop = Array.make span_cap 0
let sp_parent = Array.make span_cap (-1)
let sp_txn = Array.make span_cap 0
let n_spans = ref 0
let dropped = ref 0
let open_spans = Array.make max_depth (-1)
let n_open = ref 0
let txn_no = ref 0

(* Returns the span's slot, or -1 once the buffer is full. *)
let span_begin name =
  let i = !n_spans in
  let parent = if !n_open = 0 then -1 else open_spans.(!n_open - 1) in
  let slot =
    if i < span_cap then begin
      n_spans := i + 1;
      sp_name.(i) <- name;
      sp_parent.(i) <- parent;
      sp_txn.(i) <- !txn_no;
      sp_start.(i) <- now_ns ();
      i
    end
    else begin
      incr dropped;
      -1
    end
  in
  open_spans.(!n_open) <- slot;
  incr n_open;
  slot

let span_end slot =
  decr n_open;
  if slot >= 0 then sp_stop.(slot) <- now_ns ()

(** Open the root frame and span of one transaction. *)
let txn_begin name =
  incr txn_no;
  let s = span_begin name in
  enter l_app;
  s

let txn_end s =
  leave ();
  span_end s

let reset_all () =
  List.iter (fun a -> Array.fill a 0 n_layers 0) [ calls; busy_ns; self_ns ];
  Array.fill sim_us 0 n_layers 0.0;
  index_reads := 0;
  depth := 0;
  n_spans := 0;
  dropped := 0;
  n_open := 0;
  txn_no := 0

(** Write the spans as a Chrome trace (microsecond timestamps). *)
let write_chrome path =
  let oc = open_out path in
  let t0 = if !n_spans > 0 then sp_start.(0) else 0 in
  output_string oc "{\"traceEvents\":[\n";
  for i = 0 to !n_spans - 1 do
    Printf.fprintf oc
      "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"txn\":%d}}\n"
      (if i = 0 then "" else ",")
      sp_name.(i)
      (float_of_int (sp_start.(i) - t0) /. 1000.0)
      (float_of_int (sp_stop.(i) - sp_start.(i)) /. 1000.0)
      i sp_parent.(i) sp_txn.(i)
  done;
  Printf.fprintf oc "],\"spans_dropped\":%d}\n" !dropped;
  close_out oc

(* --- the store-boundary wrapper --- *)

(** [Store (S)] is [S] with every call counted, timed and charged to
    its layer. Types are shared with [S], so a database built through
    [S] can be attached through the wrapper. *)
module Store (S : Oo7.Store_intf.S) :
  Oo7.Store_intf.S
    with type t = S.t
     and type ptr = S.ptr
     and type cluster = S.cluster
     and type field = S.field = struct
  include S

  (* Each wrapper is written out, not built by a higher-order helper,
     so the dereference path allocates no closure per call. *)

  let get_int t p f =
    enter l_deref;
    match S.get_int t p f with
    | v -> leave (); v
    | exception e -> leave (); raise e

  let get_ptr t p f =
    enter l_deref;
    match S.get_ptr t p f with
    | v -> leave (); v
    | exception e -> leave (); raise e

  let get_chars t p f =
    enter l_deref;
    match S.get_chars t p f with
    | v -> leave (); v
    | exception e -> leave (); raise e

  let large_size t p =
    enter l_deref;
    match S.large_size t p with
    | v -> leave (); v
    | exception e -> leave (); raise e

  let large_byte t p i =
    enter l_deref;
    match S.large_byte t p i with
    | v -> leave (); v
    | exception e -> leave (); raise e

  let root t name =
    enter l_deref;
    match S.root t name with
    | v -> leave (); v
    | exception e -> leave (); raise e

  let set_int t p f v =
    enter l_write;
    match S.set_int t p f v with
    | () -> leave ()
    | exception e -> leave (); raise e

  let set_ptr t p f v =
    enter l_write;
    match S.set_ptr t p f v with
    | () -> leave ()
    | exception e -> leave (); raise e

  let set_chars t p f v =
    enter l_write;
    match S.set_chars t p f v with
    | () -> leave ()
    | exception e -> leave (); raise e

  let large_write t p ~off b =
    enter l_write;
    match S.large_write t p ~off b with
    | () -> leave ()
    | exception e -> leave (); raise e

  let create t ~cls ~cluster =
    enter l_write;
    match S.create t ~cls ~cluster with
    | v -> leave (); v
    | exception e -> leave (); raise e

  let begin_txn t =
    enter l_other;
    match S.begin_txn t with
    | () -> leave ()
    | exception e -> leave (); raise e

  let commit t =
    let s = span_begin "commit" in
    enter l_commit;
    match S.commit t with
    | () -> leave (); span_end s
    | exception e -> leave (); span_end s; raise e

  let reset_caches t =
    enter l_reset;
    match S.reset_caches t with
    | () -> leave ()
    | exception e -> leave (); raise e

  let index_reads_now t = (Esm.Server.counters (Esm.Client.server (S.client t))).Esm.Server.client_reads_index

  let index_lookup t name ~key =
    let s = span_begin "index.lookup" in
    let r0 = index_reads_now t in
    enter l_lookup;
    match S.index_lookup t name ~key with
    | v ->
      leave ();
      span_end s;
      index_reads := !index_reads + index_reads_now t - r0;
      v
    | exception e -> leave (); span_end s; raise e

  (* The callback is application code: it runs in an [app] frame so
     its time is not charged to the index. *)
  let index_range t name ~lo ~hi fn =
    let s = span_begin "index.range" in
    enter l_range;
    match
      S.index_range t name ~lo ~hi (fun p ->
          enter l_app;
          match fn p with
          | () -> leave ()
          | exception e -> leave (); raise e)
    with
    | () -> leave (); span_end s
    | exception e -> leave (); span_end s; raise e

  let index_insert t name ~key p =
    let s = span_begin "index.insert" in
    enter l_insert;
    match S.index_insert t name ~key p with
    | () -> leave (); span_end s
    | exception e -> leave (); span_end s; raise e

  let index_delete t name ~key p =
    let s = span_begin "index.delete" in
    enter l_delete;
    match S.index_delete t name ~key p with
    | () -> leave (); span_end s
    | exception e -> leave (); span_end s; raise e
end

(* --- the ESM client wrapper used by the contention workload --- *)

(* Clients run as interleaved coroutines, so a per-call stack cannot
   attribute self time; these counters record call counts and the
   wall time from call to return, which includes whatever other
   clients ran while this one was suspended. *)
let cl_read = 0
let cl_update = 1
let cl_snap_read = 2
let cl_txn = 3
let cl_snap_txn = 4
let n_client_calls = 5
let client_calls = Array.make n_client_calls 0
let client_ns = Array.make n_client_calls 0

let reset_client () =
  Array.fill client_calls 0 n_client_calls 0;
  Array.fill client_ns 0 n_client_calls 0

module Client = struct
  module C = Esm.Client

  let timed k f =
    let t0 = now_ns () in
    let fin () =
      client_calls.(k) <- client_calls.(k) + 1;
      client_ns.(k) <- client_ns.(k) + (now_ns () - t0)
    in
    match f () with
    | v -> fin (); v
    | exception e -> fin (); raise e

  let read_object cl oid = timed cl_read (fun () -> C.read_object cl oid)
  let update_object cl oid ~off b = timed cl_update (fun () -> C.update_object cl oid ~off b)
  let snapshot_read_object cl oid = timed cl_snap_read (fun () -> C.snapshot_read_object cl oid)

  let with_txn_retrying ?max_attempts ?on_retry cl f =
    timed cl_txn (fun () -> C.with_txn_retrying ?max_attempts ?on_retry cl f)

  let with_snapshot_txn ?frames ?sanitize ?max_attempts cl f =
    timed cl_snap_txn (fun () -> C.with_snapshot_txn ?frames ?sanitize ?max_attempts cl f)
end
