(* The contention workload: 4 simulated clients on one ESM server under
   the deterministic scheduler (Sched coroutines on one OS thread).

   The mix is the multi-client harness's (lib/harness/mc.ml) with
   callback locking and snapshot reads on: a 12-page world of 4 objects
   per page whose first 2 pages are hot; half the transactions are
   MVCC snapshot scans of 8 hot-skewed objects across everyone's
   partitions, the rest read 3 skewed objects and update 2 in the
   client's own partition. Each client is a closed loop. The loop is
   written here rather than calling Harness.Mc.run so that every
   transaction is timed and no trace sink grows in memory.

   A round is one scheduler run of [txns_per_client] transactions per
   client on the persistent world. The first [min_rounds] rounds are
   the deterministic prefix; untraced runs continue round by round
   until [seconds] of measured time have passed. *)

open Common
module Client = Esm.Client
module Rng = Qs_util.Rng

type spec = { clients : int; txns_per_client : int; min_rounds : int; setups : int }

let contention = { clients = 4; txns_per_client = 18; min_rounds = 500; setups = 51 }
let shortened spec = { spec with min_rounds = 2; setups = 1 }
let obj_len = 96
let objs_per_page = 4
let pages = 12
let hot = 2 * objs_per_page
let nobj = pages * objs_per_page
let scan_len = 8
let read_pct = 50

let value ~seed ~idx ~version =
  let tag = Printf.sprintf "mc%d-o%d-v%d." seed idx version in
  Bytes.init obj_len (fun i -> tag.[i mod String.length tag])

let pick_skewed rng ~hot_pct = if Rng.int rng 100 < hot_pct then Rng.int rng hot else Rng.int rng nobj

let distinct_picks ~k ~pick =
  let picked = ref [] in
  let guard = ref 0 in
  while List.length !picked < k && !guard < 1000 do
    incr guard;
    let idx = pick () in
    if not (List.mem idx !picked) then picked := idx :: !picked
  done;
  List.rev !picked

type world = { server : Server.t; clock : Clock.t; cls : Client.t array; oids : Esm.Oid.t array }

let build spec ~seed =
  let clock = Clock.create () in
  let server = Server.create ~frames:128 ~clock ~cm:Simclock.Cost_model.default () in
  Server.set_group_commit server true;
  let cls = Array.init spec.clients (fun _ -> Client.create ~frames:12 server) in
  let c0 = cls.(0) in
  let oids =
    Client.with_txn c0 (fun () ->
        Array.concat
          (List.init pages (fun p ->
               let page_id, frame = Client.new_page c0 ~kind:Esm.Page.Small_obj in
               Client.unfix_page c0 ~frame;
               Array.init objs_per_page (fun s ->
                   let v = value ~seed ~idx:((p * objs_per_page) + s) ~version:0 in
                   match Client.create_object c0 ~page_id v with
                   | Some oid -> oid
                   | None -> Client.create_object_new_page c0 v))))
  in
  Client.reset_cache c0;
  Array.iter (fun cl -> Client.enable_callbacks cl) cls;
  Server.set_versioning server true;
  { server; clock; cls; oids }

let run spec ~seed ~seconds ~trace =
  (* One calibration window brackets the whole block of builds. *)
  for _ = 1 to 5 do Calib.sample () done;
  let first = now_ns () in
  (* Only the last world is kept. *)
  let world = ref None in
  let durations =
    List.init spec.setups (fun _ ->
        let t0 = now_ns () in
        world := Some (build spec ~seed);
        secs_since t0)
  in
  let last = now_ns () in
  for _ = 1 to 5 do Calib.sample () done;
  let setup_s = median durations *. Calib.factor ~t0:first ~t1:last in
  let w = Option.get !world in
  let retries = ref 0 in
  let ps =
    Array.of_list
      (esm_probes ~server:w.server ~clock:w.clock
      @ no_store_probes
      @ [ ("retries", fun () -> float_of_int !retries)
        ; ( "retained_hits"
          , fun () ->
              float_of_int
                (Array.fold_left (fun a cl -> a + (Client.callback_stats cl).Client.retained_hits) 0 w.cls) )
        ; ( "snapshot_retries"
          , fun () -> float_of_int (Array.fold_left (fun a cl -> a + Client.snapshot_retries cl) 0 w.cls) ) ])
  in
  let acc_plain = Array.make (Array.length ps) 0.0 and acc_traced = Array.make (Array.length ps) 0.0 in
  let attempted = ref 0 and failed = ref 0 in
  let prefix_plain = ref 0 and prefix_traced = ref 0 in
  let measured_ns = ref 0 and traced_ns = ref 0 in
  let timed = ref [] (* untraced rounds: start, end, txn latencies in ns *) in
  let last_version = Array.make nobj 0 in
  let writes = Array.make spec.clients 0 in
  let stream = Buffer.create 4096 in
  let run_round r ~traced ~prefix =
    let with_txn_retrying = if traced then Tracer.Client.with_txn_retrying else Client.with_txn_retrying in
    let with_snapshot_txn = if traced then Tracer.Client.with_snapshot_txn else Client.with_snapshot_txn in
    let read_object = if traced then Tracer.Client.read_object else Client.read_object in
    let snapshot_read_object =
      if traced then Tracer.Client.snapshot_read_object else Client.snapshot_read_object
    in
    let update_object = if traced then Tracer.Client.update_object else Client.update_object in
    let before = read ps in
    let lats = ref [] in
    let t0 = now_ns () in
    let sched = Sched.create ~seed:((seed * 7919) + r) ~clocks:[ w.clock ] () in
    for c = 0 to spec.clients - 1 do
      Sched.spawn sched ~name:(Printf.sprintf "client-%d" c) (fun () ->
          let cl = w.cls.(c) in
          let rng = Rng.create ((seed * 131) + (c * 17) + 7 + (r * 1_000_003)) in
          (* Writes stay in this client's partition (idx mod clients). *)
          let own p = (p - (p mod spec.clients) + c) mod nobj in
          for _ = 1 to spec.txns_per_client do
            let scan = Rng.int rng 100 < read_pct in
            let body, on_commit =
              if scan then begin
                let rd = distinct_picks ~k:scan_len ~pick:(fun () -> pick_skewed rng ~hot_pct:60) in
                if prefix && not traced then
                  Buffer.add_string stream
                    (Printf.sprintf "%d:s%s;" c (String.concat "," (List.map string_of_int rd)));
                ( (fun () ->
                    with_snapshot_txn ~frames:32 ~max_attempts:8 cl (fun () ->
                        List.iter (fun idx -> ignore (snapshot_read_object cl w.oids.(idx))) rd))
                , ignore )
              end
              else begin
                let wr = distinct_picks ~k:2 ~pick:(fun () -> own (pick_skewed rng ~hot_pct:50)) in
                let rd = distinct_picks ~k:3 ~pick:(fun () -> pick_skewed rng ~hot_pct:60) in
                let rd = List.filter (fun idx -> not (List.mem idx wr)) rd in
                writes.(c) <- writes.(c) + 1;
                let version = (writes.(c) * spec.clients) + c in
                if prefix && not traced then
                  Buffer.add_string stream
                    (Printf.sprintf "%d:w%s/%s;" c
                       (String.concat "," (List.map string_of_int wr))
                       (String.concat "," (List.map string_of_int rd)));
                ( (fun () ->
                    with_txn_retrying ~max_attempts:8
                      ~on_retry:(fun ~attempt:_ -> incr retries)
                      cl
                      (fun () ->
                        List.iter (fun idx -> ignore (read_object cl w.oids.(idx))) rd;
                        List.iter
                          (fun idx -> update_object cl w.oids.(idx) ~off:0 (value ~seed ~idx ~version))
                          wr))
                , fun () -> List.iter (fun idx -> last_version.(idx) <- version) wr )
              end
            in
            incr attempted;
            let t = now_ns () in
            match body () with
            | () ->
              let lat = now_ns () - t in
              on_commit ();
              if prefix then incr (if traced then prefix_traced else prefix_plain);
              lats := lat :: !lats
            | exception _ -> incr failed
          done)
    done;
    let outcomes = Sched.run sched in
    let t1 = now_ns () in
    if traced then traced_ns := !traced_ns + (t1 - t0)
    else begin
      measured_ns := !measured_ns + (t1 - t0);
      timed := (t0, t1, !lats) :: !timed
    end;
    List.iter (fun (_, e) -> if e <> None then incr failed) outcomes;
    if prefix then add_delta (if traced then acc_traced else acc_plain) ps before;
    (* A checkpoint after every round, outside the measured time, keeps
       the in-memory WAL (and with it GC work) from growing over a run. *)
    Server.checkpoint w.server
  in
  (if trace then
     for r = 0 to spec.min_rounds - 1 do
       run_round r ~traced:false ~prefix:true;
       run_round r ~traced:true ~prefix:true
     done
   else begin
     let r = ref 0 in
     while !r < spec.min_rounds || float_of_int !measured_ns /. 1e9 < seconds do
       run_round !r ~traced:false ~prefix:(!r < spec.min_rounds);
       Calib.maybe_sample ();
       incr r
     done
   end);
  Calib.sample ();
  (* Every object's server-authoritative bytes (peeked uncharged) must
     be the last version its owning client committed. *)
  incr attempted;
  let page = Bytes.create Esm.Page.page_size in
  let mismatches = ref 0 in
  Array.iteri
    (fun idx oid ->
      Server.peek_page w.server oid.Esm.Oid.page page;
      let got = Esm.Page.read_slot (Esm.Page.attach page) oid.Esm.Oid.slot in
      if not (Bytes.equal got (value ~seed ~idx ~version:last_version.(idx))) then incr mismatches)
    w.oids;
  failed := !failed + !mismatches;
  let metrics =
    if trace then
      layer_metrics ~get:(getter ps acc_traced) ~txns:!prefix_traced ~get_plain:(getter ps acc_plain)
        ~plain_txns:!prefix_plain ~retries:(getter ps acc_traced "retries")
        ~retained_hits:(getter ps acc_traced "retained_hits")
        ~snapshot_retries:(getter ps acc_traced "snapshot_retries")
        ~overhead_pct:(100.0 *. ((float_of_int !traced_ns /. float_of_int !measured_ns) -. 1.0))
    else
      (* Wall times are host-speed calibrated (Calib). Rounds are equal
         work, so the median round rate discards stalls that a
         total-over-wall rate would absorb. *)
      let cal = List.map (fun (t0, t1, lats) -> (Calib.factor ~t0 ~t1, t1 - t0, lats)) !timed in
      let per_round = float_of_int (spec.clients * spec.txns_per_client) in
      end_to_end ~setup_s
        ~txn_per_s:(median (List.map (fun (f, dt, _) -> per_round /. (f *. float_of_int dt /. 1e9)) cal))
        ~lat_ms:(List.concat_map (fun (f, _, lats) -> List.map (fun l -> f *. float_of_int l /. 1e6) lats) cal)
        ~sim_ms_per_txn:(per !prefix_plain (getter ps acc_plain "sim_us") /. 1000.0)
        ~io_per_txn:(per !prefix_plain (getter ps acc_plain "server_io"))
        ~attempted:!attempted ~failed:!failed
  in
  { attempted = !attempted
  ; failed = !failed
  ; metrics
  ; stream_digest = Digest.to_hex (Digest.string (Buffer.contents stream)) }
