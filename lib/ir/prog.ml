type t = {
  mutable funcs : Func.t list * Func.t list;
      (* definition order, then the functions appended since (newest
         first); one field, so a racing reader sees a consistent pair *)
  by_name : (string, Func.t) Hashtbl.t;
  unit_of : (string, string) Hashtbl.t;
}

let create () =
  { funcs = ([], []); by_name = Hashtbl.create 64; unit_of = Hashtbl.create 64 }

let add t ?(unit_name = "main") f =
  if Hashtbl.mem t.by_name f.Func.fname then
    invalid_arg (Printf.sprintf "Prog.add: duplicate function %s" f.Func.fname);
  Hashtbl.add t.by_name f.Func.fname f;
  Hashtbl.add t.unit_of f.Func.fname unit_name;
  let fs, added = t.funcs in
  t.funcs <- (fs, f :: added)

let find t name = Hashtbl.find_opt t.by_name name

(* Appends are folded in on the first read after them, so a run of [n]
   adds costs O(n) in total rather than O(n^2). *)
let functions t =
  match t.funcs with
  | fs, [] -> fs
  | fs, added ->
    let fs = fs @ List.rev added in
    t.funcs <- (fs, []);
    fs

let replace_functions t f =
  let replace g =
    let g' = f g in
    Hashtbl.replace t.by_name g.Func.fname g';
    g'
  in
  t.funcs <- (List.map replace (functions t), [])

let unit_name t fname =
  match Hashtbl.find_opt t.unit_of fname with Some u -> u | None -> "main"

let intrinsics =
  [
    "malloc"; "free"; "print"; "fgetc"; "getpass"; "fopen"; "sendto"; "memset";
    "memcpy"; "input"; "output"; "use";
  ]

let is_intrinsic name = List.mem name intrinsics
let is_defined t name = Hashtbl.mem t.by_name name

(* Call graph over [funcs] (node [i] is [funcs.(i)]): one edge per call
   statement whose callee is in [funcs], in statement order. *)
let graph_of (funcs : Func.t array) =
  let index = Hashtbl.create (max 16 (Array.length funcs)) in
  Array.iteri (fun i f -> Hashtbl.replace index f.Func.fname i) funcs;
  let g = Pinpoint_util.Digraph.create ~initial_capacity:(Array.length funcs) () in
  if Array.length funcs > 0 then
    Pinpoint_util.Digraph.ensure_node g (Array.length funcs - 1);
  Array.iteri
    (fun i f ->
      Func.iter_stmts f (fun _ s ->
          match s.Stmt.kind with
          | Stmt.Call c -> (
            match Hashtbl.find_opt index c.Stmt.callee with
            | Some j -> Pinpoint_util.Digraph.add_edge g i j
            | None -> ())
          | _ -> ()))
    funcs;
  (g, funcs)

let call_graph t = graph_of (Array.of_list (functions t))

(* The subgraph induced by the functions satisfying [mem], nodes in
   definition order.  Only the members' statements are scanned. *)
let cone_graph t ~mem =
  graph_of
    (Array.of_list (List.filter (fun f -> mem f.Func.fname) (functions t)))

let sccs_of (g, funcs) =
  if Array.length funcs = 0 then []
  else
    Pinpoint_util.Digraph.sccs g
    |> List.map (fun comp -> List.map (fun i -> funcs.(i)) comp)

let bottom_up_sccs t = sccs_of (call_graph t)

(* Bottom-up SCCs of a caller-closed set (every caller of a member is a
   member).  This is [bottom_up_sccs t] filtered to the set, with the same
   component order and the same member order: no function outside the set
   calls into it, so the whole-program Tarjan walk from an outside root
   never reaches a member, and a walk from a member that steps outside
   finishes and pops those components without changing any member's
   lowlink or the stack below it (DESIGN.md §4.13). *)
let cone_sccs t ~mem = sccs_of (cone_graph t ~mem)

let n_stmts t = List.fold_left (fun acc f -> acc + Func.n_stmts f) 0 (functions t)

let loc_estimate t =
  List.fold_left (fun acc f -> acc + Func.n_stmts f + 2) 0 (functions t)

let validate t =
  let rec go = function
    | [] -> Ok ()
    | f :: rest -> (
      match Func.validate f with
      | Ok () -> go rest
      | Error e -> Error (Printf.sprintf "%s: %s" f.Func.fname e))
  in
  go (functions t)

let pp ppf t = List.iter (fun f -> Func.pp ppf f) (functions t)
