(* Bench-shape gate: regenerate every committed BENCH_*.json baseline
   and fail on any byte of drift. The baselines are the regime table in
   lib/harness/bench_json.ml ([Bench_json.regimes]); this test renders
   each regime and byte-compares it with its committed file. The
   simulation is deterministic, so times are compared exactly, not
   within a tolerance — any change to a committed file must be a
   deliberate, reviewed re-baseline
   (dune exec bench/main.exe -- quick no-bech --json). Measuring an OO7
   regime also checks every system's per-op answers against stock QS
   ([Bench_json.Wrong_answer] fails the test).

   Runs as a plain executable test: exit 0 on match, exit 1 with the
   first differing line otherwise. *)

(* Under [dune runtest] the cwd is [_build/default/test] (the baselines
   are declared deps one level up); under [dune exec] from the repo
   root it is the root itself. *)
let candidates name = [ "../" ^ name; name ]

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let first_diff a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i la lb =
    match (la, lb) with
    | [], [] -> None
    | x :: la', y :: lb' -> if x = y then go (i + 1) la' lb' else Some (i, x, y)
    | x :: _, [] -> Some (i, x, "<eof>")
    | [], y :: _ -> Some (i, "<eof>", y)
  in
  go 1 la lb

let check ~name regenerated =
  let baseline =
    match List.find_opt Sys.file_exists (candidates name) with
    | Some path -> read_file path
    | None ->
      Printf.eprintf "test_bench_json: committed baseline %s not found\n" name;
      exit 1
  in
  if String.equal baseline regenerated then
    Printf.printf "test_bench_json: %s matches the regenerated benchmark byte-for-byte\n" name
  else begin
    Printf.eprintf
      "test_bench_json: BENCH SHAPE DRIFT — regenerated OO7 output differs from the\n\
       committed %s. If the change is intentional, re-baseline with:\n\
      \  dune exec bench/main.exe -- quick no-bech --json\n"
      name;
    (match first_diff baseline regenerated with
     | Some (line, was, now) ->
       Printf.eprintf "first difference at line %d:\n  baseline:    %s\n  regenerated: %s\n" line
         was now
     | None ->
       Printf.eprintf "files differ in length only (baseline %d bytes, regenerated %d bytes)\n"
         (String.length baseline) (String.length regenerated));
    exit 1
  end

let () =
  let progress m = Printf.printf "%s\n%!" m in
  List.iter
    (fun (r : Harness.Bench_json.regime) ->
      check ~name:r.Harness.Bench_json.file
        (Harness.Bench_json.render (Harness.Bench_json.measure ~progress r)))
    Harness.Bench_json.regimes;
  (* The committed baseline must itself carry the tentpole claim: the
     summary field is data, so a re-baseline that loses flatness fails
     here even though the bytes match. *)
  let flat =
    List.exists
      (fun line -> line = "\"log_lookup_flat_2x\":true")
      (String.split_on_char ',' (read_file (List.find Sys.file_exists (candidates "BENCH_index.json"))))
  in
  if not flat then begin
    Printf.eprintf
      "test_bench_json: BENCH_index.json lost the flat-lookup property \
       (log_lookup_flat_2x is not true)\n";
    exit 1
  end;
  Printf.printf "test_bench_json: BENCH_index.json log-index lookup is flat (spread < 2x)\n"
