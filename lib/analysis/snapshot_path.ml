(* Pass 3c: snapshot-read lock freedom (QS016) over the call graph.

   The MVCC snapshot-read path exists so that readers never enter the
   lock manager: no waits-for edges, no wounds, no callback recalls.
   That guarantee is structural, not dynamic — nothing stops a future
   edit from slipping a [lock_page] into a helper the snapshot path
   calls. QS016 pins it: starting from the snapshot-path entry points
   (recognised by name, so fixture trees work the same as the real
   one), walk every function reachable through resolved call edges and
   flag any *direct* lock acquisition event found there. Intentional
   exceptions carry an expression-level [@qs_lint.allow "QS016"] with
   a rationale. *)

(* The snapshot-read path's entry points, by function name: the
   client-side transaction wrapper and page/object reads, the store's
   read-only fault path, and the server-side materialization (plus its
   QSan cross-check). *)
let root_names =
  [ "with_snapshot_read"
  ; "snapshot_fault"
  ; "with_snapshot_txn"
  ; "snapshot_fix_page"
  ; "snapshot_read_object"
  ; "read_page_at"
  ; "verify_snapshot_page"
  ; "materialize" ]

let qs016 (cg : Callgraph.t) (_sums : Effects.summaries) : Lint.finding list =
  let reachable =
    Callgraph.reachable cg ~roots:(fun f -> List.mem f.Callgraph.fn_name root_names)
  in
  let findings = ref [] in
  Callgraph.iter_funcs
    (fun f ->
      if
        reachable f
        && Lint.rule_applies ~path:f.Callgraph.fn_file "QS016"
        && not (List.mem "QS016" f.Callgraph.fn_allows)
      then
        List.iter
          (fun (ev : Callgraph.event) ->
            if
              (Effects.direct_of ev).Effects.d_lock_acquire
              && not (List.mem "QS016" ev.Callgraph.ev_allows)
            then
              findings :=
                { Lint.file = f.Callgraph.fn_file
                ; line = ev.Callgraph.ev_line
                ; col = ev.Callgraph.ev_col
                ; rule = "QS016"
                ; msg =
                    Printf.sprintf
                      "%s is reachable from the snapshot-read path but acquires a lock here: \
                       snapshot readers must never enter the lock manager (restructure, or \
                       annotate with [@qs_lint.allow \"QS016\"] and a rationale)"
                      (Callgraph.display f) }
                :: !findings)
          f.Callgraph.events)
    cg;
  List.rev !findings
