(* The two OO7 workloads: a closed loop of one client over QuickStore
   (default configuration) driven through Oo7.Workload.Make.

   A run is a sequence of rounds. Each round is the workload's fixed
   operation mix in a seeded order, with op-seeds (T7/Q1/Q4 part and
   title picks) drawn from a small seeded pool so that (op, op-seed)
   pairs repeat and their results can be compared. The first
   [min_rounds] rounds always run; they are the fixed prefix over which
   the deterministic metrics are taken. Untraced runs then keep going,
   round by round, until [seconds] of measured time have passed; wall
   metrics cover every measured transaction. *)

open Common
module Qs = Quickstore.Store
module TS = Tracer.Store (Qs)
module Params = Oo7.Params
module Rng = Qs_util.Rng

type spec = {
  params : Params.t;
  mix : (string * int) list;  (** operation, transactions per round *)
  min_rounds : int;
  cold : bool;  (** [reset_caches] before every transaction (paper's cold protocol) *)
  hot_reps : int;  (** hot passes after the cold pass, read-only ops *)
  checkpoint_every : int;  (** commits between checkpoints; 0 = none *)
  setups : int;  (** database builds; setup_s is their median *)
  updates_dates : bool;  (** the mix runs T3*: Q2/Q3 results drift, check them by scan *)
}

(* 14 txns per round, ~2.2 s on a 2-core x86 VM. The medium database
   (46.8 MB) is ~4x the client pool and larger than the server pool,
   so even the hot passes of T1 and Q3 read from the server. The mix
   puts each latency quantile inside one cluster of similar costs
   rather than on the step between two, where it would jump from run
   to run: 5 txns of ~0.1-1.5 ms (T9, T7, Q1, Q4), 5 of ~11-14 ms (Q5,
   T6, Q2) holding the p50, then T8, Q3 and 2 T1 (~1 s) holding the
   p90. *)
let read_medium =
  { params = Params.medium
  ; mix =
      [ ("T9", 1); ("T7", 1); ("Q1", 2); ("Q4", 1); ("Q5", 1); ("T6", 2); ("Q2", 2); ("T8", 1)
      ; ("Q3", 1); ("T1", 2) ]
  ; min_rounds = 8
  ; cold = true
  ; hot_reps = 2
  ; checkpoint_every = 0
  ; setups = 1
  ; updates_dates = false }

(* 120 txns per round, ~5.5 s: 17 plain/indexed updates (T3B alone is
   ~3-4 s) among 103 cheap reads. The small database (5.5 MB) fits
   both pools, so caches stay warm across transactions. As above, the
   p50 falls inside the Q2 cluster and the p90 inside the T2B cluster.
   T3C is left out: one T3C takes ~15 s, and T3B runs the same B-tree
   path. *)
let update_small =
  { params = Params.small
  ; mix =
      [ ("T7", 40); ("Q2", 40); ("Q1", 23); ("T2A", 2); ("T2B", 8); ("T2C", 2); ("T3A", 4)
      ; ("T3B", 1) ]
  ; min_rounds = 2
  ; cold = false
  ; hot_reps = 2
  ; checkpoint_every = 25
  ; setups = 3
  ; updates_dates = true }

(** The same workloads on the tiny database with one round, for the
    determinism self-test. *)
let shortened spec = { spec with params = Params.tiny; min_rounds = 1; setups = 1 }

(* Closed-form results (Params): the DFS reaches every part of a
   composite through the ring connection, and the manual holds
   'a'..'z' cyclically with its last byte set to 'a'. *)
let expected (p : Params.t) op =
  let bases = Params.num_base_assemblies p in
  match op with
  | "T1" | "T2A" | "T2B" | "T2C" | "T3A" | "T3B" | "T3C" ->
    Some (bases * p.Params.num_comp_per_assm * p.Params.num_atomic_per_comp)
  | "T6" -> Some (bases * p.Params.num_comp_per_assm)
  | "T8" -> Some ((p.Params.manual_size - 1 - 9 + 25) / 26)
  | "T9" -> Some 1
  | "Q1" -> Some 10
  | _ -> None

let round_ops spec ~seed r =
  let rng = Rng.create ((seed * 1_000_003) + r) in
  let ops = Array.of_list (List.concat_map (fun (op, n) -> List.init n (fun _ -> op)) spec.mix) in
  Rng.shuffle rng ops;
  Array.map (fun op -> (op, (seed * 64) + Rng.int rng 16)) ops

module Run (S : Oo7.Store_intf.S with type t = Qs.t) = struct
  module W = Oo7.Workload.Make (S)

  let phase ~traced name g =
    if not traced then g ()
    else begin
      let s = Tracer.span_begin name in
      match g () with
      | v -> Tracer.span_end s; v
      | exception e -> Tracer.span_end s; raise e
    end

  (** One transaction, begin to commit: the cold pass, then the hot
      passes of a read-only op. Returns every pass's result and the
      wall latency in ns. *)
  let txn ~traced db ~op ~opseed ~hot_reps =
    let kind, fn = W.find_op op in
    let st = db.W.st in
    let t0 = now_ns () in
    let span = if traced then Tracer.txn_begin ("txn:" ^ op) else -1 in
    let body () =
      S.begin_txn st;
      let cold = phase ~traced (op ^ ".cold") (fun () -> fn db ~seed:opseed) in
      let hots =
        match kind with
        | W.Read_only ->
          List.init hot_reps (fun _ -> phase ~traced (op ^ ".hot") (fun () -> fn db ~seed:opseed))
        | W.Update -> []
      in
      phase ~traced (op ^ ".commit") (fun () -> S.commit st);
      cold :: hots
    in
    let outcome =
      match body () with
      | results -> Ok (results, now_ns () - t0)
      | exception e ->
        (try if S.in_txn st then S.abort st with _ -> ());
        Error e
    in
    if traced then Tracer.txn_end span;
    outcome
end

module P = Run (Qs)
module T = Run (TS)

(* Builds commit every 50 composite parts; sampling the calibration
   kernel there calibrates a 20 s medium build along its length. *)
module Sampled = struct
  include Qs

  let commit t =
    Qs.commit t;
    Calib.maybe_sample ()
end

module B = Oo7.Workload.Make (Sampled)

(* After the update stream: Q2/Q3 through the date index against a
   scan of every part's date (looked up by id). *)
let date_check db =
  let st = db.P.W.st and p = db.P.W.params in
  Qs.begin_txn st;
  let q2 = P.W.q2 db and q3 = P.W.q3 db in
  let span = p.Params.max_atomic_date - p.Params.min_atomic_date + 1 in
  let cut2 = p.Params.max_atomic_date - (span / 100) + 1 in
  let cut3 = p.Params.max_atomic_date - (span / 10) + 1 in
  let s2 = ref 0 and s3 = ref 0 in
  for id = 1 to Params.num_atomic_parts p do
    match Qs.index_lookup st Oo7.Classes.idx_part_id ~key:(P.W.part_id_key id) with
    | None -> ()
    | Some part ->
      let d = Qs.get_int st part db.P.W.f.P.W.ap_date in
      if d <= p.Params.max_atomic_date then begin
        if d >= cut2 then incr s2;
        if d >= cut3 then incr s3
      end
  done;
  Qs.commit st;
  q2 = !s2 && q3 = !s3

let run spec ~seed ~seconds ~trace ~trace_file =
  (* --- setup: build the database [setups] times, keep the last --- *)
  let last_db = ref None in
  let durations =
    List.init spec.setups (fun _ ->
        (* Each build starts from a compacted heap, untimed, so earlier
           builds' garbage does not slow the later ones. *)
        last_db := None;
        Gc.compact ();
        for _ = 1 to 3 do Calib.sample () done;
        let t0 = now_ns () in
        let server = Server.create ~clock:(Clock.create ()) ~cm:Simclock.Cost_model.default () in
        let st = Qs.create_db server in
        ignore (B.build st spec.params ~seed);
        let t1 = now_ns () in
        last_db := Some (P.W.attach st spec.params);
        for _ = 1 to 3 do Calib.sample () done;
        float_of_int (t1 - t0 - Calib.time_within ~t0 ~t1) /. 1e9 *. Calib.factor ~t0 ~t1)
  in
  let setup_s = median durations in
  let db = Option.get !last_db in
  let st = db.P.W.st in
  let server = Esm.Client.server (Qs.client st) and clock = Qs.clock st in
  let tdb = T.W.attach st spec.params in
  let ps = Array.of_list (esm_probes ~server ~clock @ store_probes st) in
  let acc_plain = Array.make (Array.length ps) 0.0 and acc_traced = Array.make (Array.length ps) 0.0 in
  let attempted = ref 0 and failed = ref 0 in
  let prefix_plain = ref 0 and prefix_traced = ref 0 in
  let measured_ns = ref 0 and traced_ns = ref 0 in
  let timed = ref [] (* untraced txns: op, start, end, latency in ns or -1 *) in
  let seen = Hashtbl.create 64 in
  let since_ckpt = ref 0 in
  let check op opseed results =
    let first = List.hd results in
    let closed = match expected spec.params op with Some e -> first = e | None -> true in
    let hot_same = List.for_all (( = ) first) results in
    let repeat =
      if spec.updates_dates && (op = "Q2" || op = "Q3") then true
      else
        match Hashtbl.find_opt seen (op, opseed) with
        | Some v -> v = first
        | None -> Hashtbl.add seen (op, opseed) first; true
    in
    closed && hot_same && repeat
  in
  let run_round r ~traced ~prefix =
    Array.iter
      (fun (op, opseed) ->
        Calib.maybe_sample ();
        let t0 = now_ns () in
        if spec.cold then if traced then TS.reset_caches st else Qs.reset_caches st;
        let before = read ps in
        incr attempted;
        let outcome =
          if traced then T.txn ~traced tdb ~op ~opseed ~hot_reps:spec.hot_reps
          else P.txn ~traced db ~op ~opseed ~hot_reps:spec.hot_reps
        in
        let t1 = now_ns () in
        let lat =
          match outcome with
          | Ok (results, lat) ->
            if prefix then incr (if traced then prefix_traced else prefix_plain);
            if not (check op opseed results) then incr failed;
            lat
          | Error _ -> incr failed; -1
        in
        if prefix then add_delta (if traced then acc_traced else acc_plain) ps before;
        if traced then traced_ns := !traced_ns + (t1 - t0)
        else begin
          measured_ns := !measured_ns + (t1 - t0);
          timed := (op, t0, t1, lat) :: !timed
        end;
        (* Checkpoints run between transactions and outside the
           measured time, every [checkpoint_every] commits. *)
        incr since_ckpt;
        if spec.checkpoint_every > 0 && !since_ckpt >= spec.checkpoint_every then begin
          since_ckpt := 0;
          Server.checkpoint server
        end)
      (round_ops spec ~seed r)
  in
  (if trace then
     (* Each prefix round runs untraced, then again traced: the
        overhead compares the same transactions. *)
     for r = 0 to spec.min_rounds - 1 do
       run_round r ~traced:false ~prefix:true;
       Tracer.arm clock;
       run_round r ~traced:true ~prefix:true;
       Tracer.disarm clock
     done
   else begin
     let r = ref 0 in
     while !r < spec.min_rounds || float_of_int !measured_ns /. 1e9 < seconds do
       run_round !r ~traced:false ~prefix:(!r < spec.min_rounds);
       incr r
     done
   end);
  Calib.sample ();
  if spec.updates_dates then begin
    incr attempted;
    match date_check db with true -> () | false -> incr failed | exception _ -> incr failed
  end;
  let stream_digest =
    let b = Buffer.create 256 in
    for r = 0 to spec.min_rounds - 1 do
      Array.iter (fun (op, s) -> Buffer.add_string b (Printf.sprintf "%s/%d;" op s)) (round_ops spec ~seed r)
    done;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  let metrics =
    if trace then begin
      (match trace_file with Some path -> Tracer.write_chrome path | None -> ());
      layer_metrics ~get:(getter ps acc_traced) ~txns:!prefix_traced ~get_plain:(getter ps acc_plain)
        ~plain_txns:!prefix_plain ~retries:0.0 ~retained_hits:0.0 ~snapshot_retries:0.0
        ~overhead_pct:(100.0 *. ((float_of_int !traced_ns /. float_of_int !measured_ns) -. 1.0))
    end
    else
      (* Wall times are host-speed calibrated (Calib). The rate is that
         of a round made of each operation's median measured time
         (reset and txn), so a stall on one transaction does not move
         the whole run's rate. *)
      let cal = List.map (fun (op, t0, t1, lat) -> (op, Calib.factor ~t0 ~t1, t1 - t0, lat)) !timed in
      let lat_ms =
        List.filter_map (fun (_, f, _, lat) -> if lat < 0 then None else Some (f *. float_of_int lat /. 1e6)) cal
      in
      let op_ms op =
        median (List.filter_map (fun (o, f, dt, _) -> if o = op then Some (f *. float_of_int dt /. 1e6) else None) cal)
      in
      let round_ms = List.fold_left (fun acc (op, n) -> acc +. (float_of_int n *. op_ms op)) 0.0 spec.mix in
      let round_txns = List.fold_left (fun acc (_, n) -> acc + n) 0 spec.mix in
      end_to_end ~setup_s
        ~txn_per_s:(float_of_int round_txns /. (round_ms /. 1000.0))
        ~lat_ms
        ~sim_ms_per_txn:(per !prefix_plain (getter ps acc_plain "sim_us") /. 1000.0)
        ~io_per_txn:(per !prefix_plain (getter ps acc_plain "server_io"))
        ~attempted:!attempted ~failed:!failed
  in
  { attempted = !attempted; failed = !failed; metrics; stream_digest }
