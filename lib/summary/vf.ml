open Pinpoint_ir
module Seg = Pinpoint_seg.Seg

type spec = {
  follow_operands : bool;
  source_vars : Seg.t -> (Var.t * int) list;
  is_sink_use : Seg.t -> Seg.use -> bool;
}

type fsum = {
  vf1 : (int * int) list;
  vf2 : int list;
  vf3 : int list;
  vf4 : int list;
}

type t = (string, fsum) Hashtbl.t

let empty () : t = Hashtbl.create 1
let find t name = Hashtbl.find_opt t name

(* One function's call statements, collected once for every search and
   every checker, indexed by sid only if a search needs it. *)
type calls = {
  sites : (int * Stmt.call) list;
  by_sid : (int, Stmt.call) Hashtbl.t Lazy.t;
}

let calls_of (f : Func.t) =
  let sites =
    Func.fold_stmts f ~init:[] ~f:(fun acc _ s ->
        match s.Stmt.kind with Stmt.Call c -> (s.Stmt.sid, c) :: acc | _ -> acc)
  in
  let by_sid =
    lazy
      (let t = Hashtbl.create 16 in
       List.iter (fun (sid, c) -> Hashtbl.replace t sid c) sites;
       t)
  in
  { sites; by_sid }

(* Forward reachability from a set of variables over the SEG value-flow
   edges, extended across call sites by callee VF1 facts (VF1 continues
   the flow at the receiver).  Both depend on the value-flow class only —
   whether operator edges are followed — never on a checker's sources or
   sinks, so one search serves every checker of the class; [vf1] is any
   class member's table. *)
let reach_from seg calls ~follow (vf1 : t) (starts : Var.t list) :
    unit Var.Tbl.t =
  let visited = Var.Tbl.create 16 in
  let q = Queue.create () in
  let push w =
    if not (Var.Tbl.mem visited w) then begin
      Var.Tbl.replace visited w ();
      Queue.add w q
    end
  in
  List.iter push starts;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun (e : Seg.edge) ->
        match e.Seg.kind with
        | Seg.Copy -> push e.Seg.dst
        | Seg.Operand -> if follow then push e.Seg.dst)
      (Seg.succs seg v);
    List.iter
      (fun (u : Seg.use) ->
        match u.Seg.ukind with
        | Seg.Call_arg { callee; arg_index } -> (
          match Hashtbl.find_opt vf1 callee with
          | None -> ()
          | Some cs -> (
            match Hashtbl.find_opt (Lazy.force calls.by_sid) u.Seg.sid with
            | None -> ()
            | Some c ->
              List.iter
                (fun (i, j) ->
                  if i = arg_index + 1 then
                    Option.iter push (List.nth_opt c.Stmt.recvs j))
                cs.vf1))
        | _ -> ())
      (Seg.uses_of seg v)
  done;
  visited

(* Summaries of one function for every member of one value-flow class.
   The per-parameter searches and VF1 are computed once for the class;
   VF2–VF4 are then derived per member from the shared reach sets and the
   member's own sources, sinks and callee summaries.  Nothing is written
   to the tables here: a recursive call must see the tables as they were
   before this function was summarized, for every member alike. *)
let summarize_class seg calls (members : (spec * t) list) : fsum list =
  let f = Seg.func seg in
  let follow = (fst (List.hd members)).follow_operands in
  let vf1_table = snd (List.hd members) in
  let ret_positions v =
    List.filter_map
      (fun (u : Seg.use) ->
        match u.Seg.ukind with
        | Seg.Ret_op j when Var.equal u.Seg.uvar v -> Some j
        | _ -> None)
      (Seg.uses_of seg v)
  in
  let rets_of reach =
    Var.Tbl.fold (fun v () acc -> ret_positions v @ acc) reach []
  in
  let param_reach =
    List.map (fun p -> reach_from seg calls ~follow vf1_table [ p ]) f.Func.params
  in
  let vf1 =
    List.concat
      (List.mapi
         (fun idx0 reach -> List.map (fun j -> (idx0 + 1, j)) (rets_of reach))
         param_reach)
    |> List.sort_uniq compare
  in
  let params_reaching vars =
    List.concat
      (List.mapi
         (fun idx0 reach ->
           if List.exists (Var.Tbl.mem reach) vars then [ idx0 + 1 ] else [])
         param_reach)
  in
  List.map
    (fun (spec, (t : t)) ->
      (* Source variables: the checker's own sources plus receivers that
         are buggy after a call (callee VF2) and actuals buggy after a call
         (callee VF3). *)
      let call_sources =
        List.concat_map
          (fun (_, (c : Stmt.call)) ->
            match Hashtbl.find_opt t c.Stmt.callee with
            | None -> []
            | Some cs ->
              List.filter_map (fun j -> List.nth_opt c.Stmt.recvs j) cs.vf2
              @ List.filter_map
                  (fun i ->
                    match List.nth_opt c.Stmt.args (i - 1) with
                    | Some (Stmt.Ovar u) -> Some u
                    | _ -> None)
                  cs.vf3)
          calls.sites
      in
      let sources = List.map fst (spec.source_vars seg) @ call_sources in
      (* Sink-consuming variables: the checker's sinks plus actuals whose
         callee has VF4 on that parameter. *)
      let sink_vars =
        List.filter_map
          (fun (u : Seg.use) ->
            if spec.is_sink_use seg u then Some u.Seg.uvar
            else
              match u.Seg.ukind with
              | Seg.Call_arg { callee; arg_index } -> (
                match Hashtbl.find_opt t callee with
                | Some cs when List.mem (arg_index + 1) cs.vf4 -> Some u.Seg.uvar
                | _ -> None)
              | _ -> None)
          (Seg.uses seg)
      in
      {
        vf1;
        vf2 =
          rets_of (reach_from seg calls ~follow vf1_table sources)
          |> List.sort_uniq compare;
        vf3 = params_reaching sources;
        vf4 = params_reaching sink_vars;
      })
    members

let same_class a b = a.follow_operands = b.follow_operands

let rec classes = function
  | [] -> []
  | ((s, _) :: _) as members ->
    let cls, rest = List.partition (fun (s', _) -> same_class s s') members in
    cls :: classes rest

(* One walk over [sccs] (bottom-up), summarizing each function for every
   member table, one class at a time. *)
let summarize_all seg_of members sccs =
  let classes = classes members in
  List.iter
    (List.iter (fun (f : Func.t) ->
         match seg_of f.Func.fname with
         | None -> ()
         | Some seg ->
           let calls = calls_of f in
           List.iter
             (fun cls ->
               List.iter2
                 (fun (_, t) s -> Hashtbl.replace t f.Func.fname s)
                 cls
                 (summarize_class seg calls cls))
             classes))
    sccs

let generate_all prog seg_of specs =
  let members = List.map (fun spec -> (spec, (Hashtbl.create 64 : t))) specs in
  summarize_all seg_of members (Prog.bottom_up_sccs prog);
  List.map snd members

let generate prog seg_of spec = List.hd (generate_all prog seg_of [ spec ])

(* Incremental regeneration (DESIGN.md §4.13): same contract as
   {!Rv.update} — [dirty] is caller-closed, so every SCC is wholly dirty
   or wholly clean, and clean summaries (a function of the function's own
   SEG and its callees' summaries) are already what a full generate would
   compute.  Only the cone's SCCs are walked ({!Prog.cone_sccs}). *)
let update_all prog seg_of members ~dirty =
  let sccs = Prog.cone_sccs prog ~mem:dirty in
  List.iter
    (List.iter (fun (f : Func.t) ->
         List.iter (fun (_, t) -> Hashtbl.remove t f.Func.fname) members))
    sccs;
  summarize_all seg_of members sccs

let fold (t : t) ~init ~f = Hashtbl.fold (fun name s acc -> f acc name s) t init
let add (t : t) name s = Hashtbl.replace t name s

let pp ppf (t : t) =
  Hashtbl.iter
    (fun name s ->
      Format.fprintf ppf "VF %s: vf1={%a} vf2={%a} vf3={%a} vf4={%a}@." name
        (Pinpoint_util.Pp.list (fun ppf (i, j) -> Format.fprintf ppf "%d->r%d" i j))
        s.vf1
        (Pinpoint_util.Pp.list Format.pp_print_int)
        s.vf2
        (Pinpoint_util.Pp.list Format.pp_print_int)
        s.vf3
        (Pinpoint_util.Pp.list Format.pp_print_int)
        s.vf4)
    t
