(* Host-speed calibration for wall-clock metrics.

   The benchmark runs on shared virtual machines whose speed drifts by
   tens of percent over seconds to minutes: the same contention round
   measures 13 ms at one moment and 16 ms a minute later.
   The benchmark therefore times a fixed kernel between measured
   transactions (outside the measured time) and reports every wall
   time scaled by [nominal_ns / k], where [k] is the median kernel time
   sampled around that measurement. The result reads as wall time on a
   host where the kernel takes [nominal_ns]; a change to the program
   moves it as it moves raw wall time, while host drift, which slows
   the kernel and the program alike, largely cancels. The kernel is
   benchmark code and shares no code with the program. *)

let nominal_ns = 2.3e6
let window_ns = 250_000_000

(* Hash-table updates with small young blocks, 1 KB copies and
   hashing: the mix of the simulator's own inner loops. Of the kernels
   tried, this one tracked the workloads' drift best. The table holds
   at most 256 entries, so a minor collection during the kernel
   promotes almost nothing into the program's heap. *)
let kernel () =
  let h = Hashtbl.create 256 in
  let b = Bytes.create 8192 in
  let acc = ref 0 in
  for i = 0 to 20_000 do
    Hashtbl.replace h (i land 255) (Bytes.sub b (i land 1023) 64);
    Bytes.blit b 0 b 4096 1024;
    acc := !acc + Hashtbl.hash i
  done;
  !acc

(* Samples in time order: start time and duration, ns. *)
let starts = ref (Array.make 4096 0)
let times = ref (Array.make 4096 0)
let n = ref 0

let min_spacing_ns = 100_000_000

(** Time the kernel once. *)
let sample () =
  let t0 = Tracer.now_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  let dt = Tracer.now_ns () - t0 in
  if !n = Array.length !starts then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    starts := grow !starts;
    times := grow !times
  end;
  !starts.(!n) <- t0;
  !times.(!n) <- dt;
  incr n

(** Time the kernel unless it ran in the last [min_spacing_ns]: at
    most 10 samples a second, each ~2.3 ms, between measured
    transactions. *)
let maybe_sample () = if !n = 0 || Tracer.now_ns () - !starts.(!n - 1) >= min_spacing_ns then sample ()

(** The scale for a wall time measured over [t0, t1]: [nominal_ns]
    over the median kernel time sampled within [window_ns] of it (the
    nearest sample if none is). *)
let factor ~t0 ~t1 =
  let lo = t0 - window_ns and hi = t1 + window_ns in
  let inside = ref [] and nearest = ref 0 and best = ref max_int in
  for i = 0 to !n - 1 do
    let s = !starts.(i) in
    if s >= lo && s <= hi then inside := float_of_int !times.(i) :: !inside;
    let d = if s < t0 then t0 - s else if s > t1 then s - t1 else 0 in
    if d < !best then begin
      best := d;
      nearest := i
    end
  done;
  let k = match !inside with [] -> float_of_int !times.(!nearest) | ks -> Common.median ks in
  nominal_ns /. k

(** Median of every kernel time sampled so far, ns. *)
let median_ns () = Common.median (List.init !n (fun i -> float_of_int !times.(i)))

(** Kernel time spent in samples taken within [t0, t1], ns, for
    subtracting from a measurement that sampled along the way. *)
let time_within ~t0 ~t1 =
  let total = ref 0 in
  for i = 0 to !n - 1 do
    if !starts.(i) >= t0 && !starts.(i) <= t1 then total := !total + !times.(i)
  done;
  !total
