(* Pass 1 of the whole-program analyzer (see lint.mli and DESIGN.md):
   parse every compilation unit, extract one record per top-level (or
   nested-module) function with its call events in syntactic order, and
   resolve `Module.fn` references against the set of parsed units.

   The extraction is deliberately syntactic: a "call event" is any
   occurrence of an identifier in expression position, so higher-order
   uses ([List.iter (flush t) pages]) contribute edges too. Each event
   carries the context the later passes need — whether it sits inside a
   [Fun.protect ~finally] thunk or an exception handler, which literal
   [Lock_mgr] resource class flows into it, and the [@qs_lint.allow]
   rules in scope at the site. *)

open Parsetree

type lock_class = Page | File

let class_name = function Page -> "Page" | File -> "File"

type event = {
  ev_line : int;
  ev_col : int;
  comps : string list;  (** flattened identifier components, e.g. ["Esm"; "Server"; "lock"] *)
  lock_arg : lock_class option;  (** literal [Page_lock]/[File_lock] constructor among the args *)
  point_arg : string option;  (** [Qs_fault.Point.x] among the args — the crash-point name [x] *)
  raise_arg : string option;  (** for raise-family calls, the exception constructor *)
  in_protect : bool;  (** inside a [Fun.protect ~finally] thunk *)
  in_handler : bool;  (** inside a [try ... with] / [match ... with exception] handler *)
  ev_branch : (int * int) list;
      (** root-first (construct id, case index) path: which arm of each
          enclosing match/try/function/if this event sits in *)
  ev_allows : string list;  (** [@qs_lint.allow] rules in scope at this site *)
}

(* Two events can lie on one execution path unless they sit in
   different arms of the *same* branching construct. (Arms of distinct
   constructs may well execute sequentially, so they stay compatible —
   the analysis over-approximates reachability, never path-splits.) *)
let same_path a b =
  let rec go x y =
    match (x, y) with
    | [], _ | _, [] -> true
    | (c1, i1) :: tx, (c2, i2) :: ty -> if c1 = c2 then i1 = i2 && go tx ty else true
  in
  go a.ev_branch b.ev_branch

type func = {
  fn_key : string;  (** "file:Module.name" — unique analysis key *)
  fn_module : string;  (** innermost enclosing module (file module or nested) *)
  fn_enclosing : string list;  (** module name resolution path, innermost first *)
  fn_name : string;
  fn_file : string;
  fn_line : int;
  fn_allows : string list;  (** file-level + binding-level allows *)
  fn_aliases : (string * string) list;  (** file's [module X = Y] aliases, X -> Y *)
  events : event list;  (** syntactic order *)
}

type t = {
  funcs : (string, func) Hashtbl.t;
  keys : string list;  (** sorted [fn_key]s *)
  by_modfn : (string, string list) Hashtbl.t;  (** "Module.name" -> sorted keys *)
}

(* Display name: "Module.name" (not unique across libraries — two
   [store.ml]s both yield [Store.x]; pair with [fn_file] to identify). *)
let display f = f.fn_module ^ "." ^ f.fn_name

(* ------------------------------------------------------------------ *)
(* Helpers.                                                            *)

let last_two comps =
  match List.rev comps with
  | [] -> (None, None)
  | [ x ] -> (Some x, None)
  | x :: y :: _ -> (Some x, Some y)

let module_of_path path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let rec strip_expr e =
  match e.pexp_desc with
  | Pexp_constraint (e', _) | Pexp_open (_, e') | Pexp_newtype (_, e') -> strip_expr e'
  | _ -> e

(* Literal lock-class constructor anywhere among the (shallow) args. *)
let lock_class_of_arg a =
  match (strip_expr a).pexp_desc with
  | Pexp_construct ({ txt; _ }, _) -> (
    match last_two (Longident.flatten txt) with
    | Some "Page_lock", _ -> Some Page
    | Some "File_lock", _ -> Some File
    | _ -> None)
  | _ -> None

(* [Qs_fault.Point.commit_pre_log] (or just [Point.x]) among the args. *)
let point_of_arg a =
  match (strip_expr a).pexp_desc with
  | Pexp_ident { txt; _ } -> (
    match last_two (Longident.flatten txt) with
    | Some last, Some "Point" -> Some last
    | _ -> None)
  | _ -> None

(* Exception constructor for [raise (M.Exn ...)] / [raise M.Exn]. *)
let exn_of_arg a =
  match (strip_expr a).pexp_desc with
  | Pexp_construct ({ txt; _ }, _) -> (
    match last_two (Longident.flatten txt) with Some last, _ -> Some last | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Per-function event extraction.                                      *)

type walk_ctx = {
  mutable events : event list;  (* reversed *)
  mutable in_protect : bool;
  mutable in_handler : bool;
  mutable branch : (int * int) list;  (* reversed: innermost first *)
  mutable next_construct : int;
  mutable allow_stack : string list list;
}

let emit w ~loc ?(lock_arg = None) ?(point_arg = None) ?(raise_arg = None) comps =
  let pos = loc.Location.loc_start in
  w.events <-
    { ev_line = pos.Lexing.pos_lnum
    ; ev_col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol
    ; comps
    ; lock_arg
    ; point_arg
    ; raise_arg
    ; in_protect = w.in_protect
    ; in_handler = w.in_handler
    ; ev_branch = List.rev w.branch
    ; ev_allows = List.sort_uniq String.compare (List.concat w.allow_stack) }
    :: w.events

let in_arm w cid idx f =
  let saved = w.branch in
  w.branch <- (cid, idx) :: saved;
  f ();
  w.branch <- saved

let is_raise_family = function
  | [ "raise" ] | [ "raise_notrace" ] | [ "Stdlib"; "raise" ] | [ "Stdlib"; "raise_notrace" ] ->
    `Raise
  | [ "failwith" ] | [ "Stdlib"; "failwith" ] -> `Named "Failure"
  | [ "invalid_arg" ] | [ "Stdlib"; "invalid_arg" ] -> `Named "Invalid_argument"
  | _ -> `No

let walk_events allows_of_attrs body =
  let w =
    { events = []
    ; in_protect = false
    ; in_handler = false
    ; branch = []
    ; next_construct = 0
    ; allow_stack = [] }
  in
  let fresh_construct () =
    let c = w.next_construct in
    w.next_construct <- c + 1;
    c
  in
  let expr self e =
    let pushed = List.sort_uniq String.compare (allows_of_attrs e.pexp_attributes) in
    w.allow_stack <- pushed :: w.allow_stack;
    (match e.pexp_desc with
     | Pexp_apply (fn, args) -> (
       match (strip_expr fn).pexp_desc with
       | Pexp_ident { txt; _ } ->
         let comps = Longident.flatten txt in
         let lock_arg = List.find_map (fun (_, a) -> lock_class_of_arg a) args in
         let point_arg = List.find_map (fun (_, a) -> point_of_arg a) args in
         let raise_arg =
           match is_raise_family comps with
           | `Raise -> (
             (* [raise e] (a re-raise of a caught exception) still
                raises *something*: record it as "?". *)
             match List.find_map (fun (_, a) -> exn_of_arg a) args with
             | Some n -> Some n
             | None -> Some "?")
           | `Named n -> Some n
           | `No -> None
         in
         emit w ~loc:fn.pexp_loc ~lock_arg ~point_arg ~raise_arg comps;
         let is_protect =
           match last_two comps with Some "protect", Some "Fun" -> true | _ -> false
         in
         List.iter
           (fun (lbl, a) ->
             match lbl with
             | Asttypes.Labelled "finally" when is_protect ->
               let saved = w.in_protect in
               w.in_protect <- true;
               self.Ast_iterator.expr self a;
               w.in_protect <- saved
             | _ -> self.Ast_iterator.expr self a)
           args
       | _ -> Ast_iterator.default_iterator.expr self e)
     | Pexp_ident { txt; _ } ->
       emit w ~loc:e.pexp_loc (Longident.flatten txt);
       Ast_iterator.default_iterator.expr self e
     | Pexp_try (body, cases) ->
       self.Ast_iterator.expr self body;
       let saved = w.in_handler in
       let cid = fresh_construct () in
       w.in_handler <- true;
       List.iteri (fun i c -> in_arm w cid i (fun () -> self.Ast_iterator.case self c)) cases;
       w.in_handler <- saved
     | Pexp_match (scrut, cases) ->
       self.Ast_iterator.expr self scrut;
       let cid = fresh_construct () in
       List.iteri
         (fun i c ->
           let is_exn =
             match c.pc_lhs.ppat_desc with Ppat_exception _ -> true | _ -> false
           in
           in_arm w cid i (fun () ->
               if is_exn then begin
                 let saved = w.in_handler in
                 w.in_handler <- true;
                 self.Ast_iterator.case self c;
                 w.in_handler <- saved
               end
               else self.Ast_iterator.case self c))
         cases
     | Pexp_function cases ->
       let cid = fresh_construct () in
       List.iteri (fun i c -> in_arm w cid i (fun () -> self.Ast_iterator.case self c)) cases
     | Pexp_ifthenelse (cond, then_, else_) ->
       self.Ast_iterator.expr self cond;
       let cid = fresh_construct () in
       in_arm w cid 0 (fun () -> self.Ast_iterator.expr self then_);
       (match else_ with
        | Some e' -> in_arm w cid 1 (fun () -> self.Ast_iterator.expr self e')
        | None -> ())
     | _ -> Ast_iterator.default_iterator.expr self e);
    w.allow_stack <- List.tl w.allow_stack
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it body;
  List.rev w.events

(* ------------------------------------------------------------------ *)
(* Structure traversal: functions and module aliases.                  *)

let rec binding_name p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (p', _) -> binding_name p'
  | _ -> None

let extract_file ~allows_of_attrs ~path ~structure =
  let file_mod = module_of_path path in
  let file_allows = ref [] in
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_attribute a ->
        if a.attr_name.txt = "qs_lint.allow" then
          file_allows := allows_of_attrs [ a ] @ !file_allows
      | _ -> ())
    structure;
  (* [module MT = Mapping_table] / [module CM = Simclock.Cost_model]:
     map the alias to the target's trailing component so qualified
     references through the alias resolve. *)
  let aliases = ref [] in
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_module { pmb_name = { txt = Some n; _ }; pmb_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ }
        -> (
        match last_two (Longident.flatten txt) with
        | Some target, _ -> aliases := (n, target) :: !aliases
        | _ -> ())
      | _ -> ())
    structure;
  let aliases = List.rev !aliases in
  let funcs = ref [] in
  let rec items enclosing str =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, bindings) ->
          List.iter
            (fun vb ->
              match binding_name vb.pvb_pat with
              | None -> ()
              | Some name ->
                let pos = vb.pvb_loc.Location.loc_start in
                let allows =
                  List.sort_uniq String.compare (allows_of_attrs vb.pvb_attributes @ !file_allows)
                in
                funcs :=
                  { fn_key = path ^ ":" ^ List.hd enclosing ^ "." ^ name
                  ; fn_module = List.hd enclosing
                  ; fn_enclosing = enclosing
                  ; fn_name = name
                  ; fn_file = path
                  ; fn_line = pos.Lexing.pos_lnum
                  ; fn_allows = allows
                  ; fn_aliases = aliases
                  ; events = walk_events allows_of_attrs vb.pvb_expr }
                  :: !funcs)
            bindings
        | Pstr_module { pmb_name = { txt = Some n; _ }; pmb_expr; _ } -> (
          match pmb_expr.pmod_desc with
          | Pmod_structure sub -> items (n :: enclosing) sub
          | _ -> ())
        | _ -> ())
      str
  in
  items [ file_mod ] structure;
  List.rev !funcs

(* ------------------------------------------------------------------ *)
(* Program assembly and reference resolution.                          *)

let parse_structure ~path ~contents =
  let lexbuf = Lexing.from_string contents in
  Lexing.set_filename lexbuf path;
  match Parse.implementation lexbuf with str -> Some str | exception _ -> None

let build ~allows_of_attrs files =
  let funcs = Hashtbl.create 256 in
  let by_modfn = Hashtbl.create 256 in
  List.iter
    (fun (path, contents) ->
      match parse_structure ~path ~contents with
      | None -> ()  (* parse errors are QS000's business, not ours *)
      | Some structure ->
        List.iter
          (fun f ->
            (* First binding of a name wins within a file (top-level
               shadowing is rare; merging rebindings is not worth it). *)
            if not (Hashtbl.mem funcs f.fn_key) then begin
              Hashtbl.replace funcs f.fn_key f;
              let d = display f in
              let prev = Option.value ~default:[] (Hashtbl.find_opt by_modfn d) in
              Hashtbl.replace by_modfn d (f.fn_key :: prev)
            end)
          (extract_file ~allows_of_attrs ~path ~structure))
    (List.sort compare files);
  let keys = List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) funcs []) in
  Hashtbl.iter (fun n ks -> Hashtbl.replace by_modfn n (List.sort String.compare ks)) by_modfn;
  { funcs; keys; by_modfn }

(* Resolve an event's identifier to the candidate function keys.

   - unqualified [f]: looked up in the enclosing modules of the
     caller's own file, innermost first (nested module, then the file
     module);
   - qualified [M.f] (or deeper [Lib.M.f]): matched by the trailing
     module component against every parsed module named [M], with
     [module X = Y] aliases applied first. A candidate in the caller's
     own directory wins outright; otherwise all candidates are
     returned and the effect pass unions over them (two libraries both
     defining [Store] cannot be told apart syntactically — the union
     over-approximates instead of guessing).

   Unresolved references (stdlib, other libraries) return []; the
   effect pass recognises the primitive ones directly by name. *)
let resolve t ~(caller : func) comps =
  match last_two comps with
  | None, _ -> []
  | Some name, penult -> (
    let qualified =
      match penult with
      | Some m when String.length m > 0 && m.[0] >= 'A' && m.[0] <= 'Z' -> Some m
      | _ -> None
    in
    match qualified with
    | None -> (
      match
        List.find_map
          (fun m ->
            let k = caller.fn_file ^ ":" ^ m ^ "." ^ name in
            if Hashtbl.mem t.funcs k then Some k else None)
          caller.fn_enclosing
      with
      | Some k -> [ k ]
      | None -> [])
    | Some m -> (
      let m = match List.assoc_opt m caller.fn_aliases with Some target -> target | None -> m in
      match Hashtbl.find_opt t.by_modfn (m ^ "." ^ name) with
      | None -> []
      | Some candidates -> (
        let dir = Filename.dirname caller.fn_file in
        match
          List.filter
            (fun k ->
              match Hashtbl.find_opt t.funcs k with
              | Some f -> Filename.dirname f.fn_file = dir
              | None -> false)
            candidates
        with
        | [ local ] -> [ local ]
        | _ -> candidates)))

let find t key = Hashtbl.find_opt t.funcs key
let iter_funcs f t = List.iter (fun k -> f (Hashtbl.find t.funcs k)) t.keys

(* [reachable t ~roots] is the membership test of the set of functions
   reachable from those satisfying [roots] (roots included) through
   resolved call edges — a BFS. The traversal ignores path policy (a
   helper in an exempt file still carries the path into enforced
   code); rules apply policy and allows where a finding would land. *)
let reachable t ~roots =
  let seen = Hashtbl.create 64 in
  let queue = Queue.create () in
  let visit f =
    if not (Hashtbl.mem seen f.fn_key) then begin
      Hashtbl.replace seen f.fn_key ();
      Queue.add f queue
    end
  in
  iter_funcs (fun f -> if roots f then visit f) t;
  while not (Queue.is_empty queue) do
    let f = Queue.pop queue in
    List.iter
      (fun ev ->
        List.iter
          (fun key -> match find t key with Some callee -> visit callee | None -> ())
          (resolve t ~caller:f ev.comps))
      f.events
  done;
  fun f -> Hashtbl.mem seen f.fn_key
