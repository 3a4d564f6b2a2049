(* The per-checker VF summary pass (paper §3.3.2) as the library ran it
   before checkers of one value-flow class shared their searches: one
   bottom-up walk and one full set of reachability searches per checker.
   The oracle the shared pass ({!Pinpoint_summary.Vf.generate_all}) is
   tested against. *)

open Pinpoint_ir
module Seg = Pinpoint_seg.Seg
module Vf = Pinpoint_summary.Vf

type t = (string, Vf.fsum) Hashtbl.t

(* Forward reachability from a set of variables over the SEG value-flow
   edges, extended across call sites using already-computed callee
   summaries (VF1 continues the flow at the receiver). *)
let reach_from (seg : Seg.t) (t : t) (spec : Vf.spec) (starts : Var.t list) :
    Var.Set.t =
  let f = Seg.func seg in
  let stmt_by_sid = Hashtbl.create 16 in
  Func.iter_stmts f (fun _ s -> Hashtbl.replace stmt_by_sid s.Stmt.sid s);
  let visited = ref Var.Set.empty in
  let q = Queue.create () in
  List.iter
    (fun v ->
      if not (Var.Set.mem v !visited) then begin
        visited := Var.Set.add v !visited;
        Queue.add v q
      end)
    starts;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    let push w =
      if not (Var.Set.mem w !visited) then begin
        visited := Var.Set.add w !visited;
        Queue.add w q
      end
    in
    List.iter
      (fun (e : Seg.edge) ->
        match e.Seg.kind with
        | Seg.Copy -> push e.Seg.dst
        | Seg.Operand -> if spec.Vf.follow_operands then push e.Seg.dst)
      (Seg.succs seg v);
    (* Cross-call continuation via callee VF1. *)
    List.iter
      (fun (u : Seg.use) ->
        match u.Seg.ukind with
        | Seg.Call_arg { callee; arg_index } -> (
          match Hashtbl.find_opt t callee with
          | None -> ()
          | Some callee_sum -> (
            match Hashtbl.find_opt stmt_by_sid u.Seg.sid with
            | Some { Stmt.kind = Stmt.Call c; _ } ->
              List.iter
                (fun (i, j) ->
                  if i = arg_index + 1 then
                    match List.nth_opt c.Stmt.recvs j with
                    | Some r -> push r
                    | None -> ())
                callee_sum.Vf.vf1
            | _ -> ()))
        | _ -> ())
      (Seg.uses_of seg v)
  done;
  !visited

let summarize (seg : Seg.t) (t : t) (spec : Vf.spec) : Vf.fsum =
  let f = Seg.func seg in
  let stmt_by_sid = Hashtbl.create 16 in
  Func.iter_stmts f (fun _ s -> Hashtbl.replace stmt_by_sid s.Stmt.sid s);
  (* Source variables: the checker's own sources plus receivers that are
     buggy after a call (callee VF2) — actuals buggy after a call (callee
     VF3) are handled as sources too. *)
  let call_sources =
    Func.fold_stmts f ~init:[] ~f:(fun acc _ s ->
        match s.Stmt.kind with
        | Stmt.Call c -> (
          match Hashtbl.find_opt t c.Stmt.callee with
          | None -> acc
          | Some cs ->
            let from_vf2 =
              List.filter_map (fun j -> List.nth_opt c.Stmt.recvs j) cs.Vf.vf2
            in
            let from_vf3 =
              List.filter_map
                (fun i ->
                  match List.nth_opt c.Stmt.args (i - 1) with
                  | Some (Stmt.Ovar u) -> Some u
                  | _ -> None)
                cs.Vf.vf3
            in
            from_vf2 @ from_vf3 @ acc)
        | _ -> acc)
  in
  let own_sources = List.map fst (spec.Vf.source_vars seg) in
  let sources = own_sources @ call_sources in
  (* Sink-consuming variables: the checker's sinks plus actuals whose
     callee has VF4 on that parameter. *)
  let sink_vars =
    List.filter_map
      (fun (u : Seg.use) ->
        if spec.Vf.is_sink_use seg u then Some u.Seg.uvar
        else
          match u.Seg.ukind with
          | Seg.Call_arg { callee; arg_index } -> (
            match Hashtbl.find_opt t callee with
            | Some cs when List.mem (arg_index + 1) cs.Vf.vf4 -> Some u.Seg.uvar
            | _ -> None)
          | _ -> None)
      (Seg.uses seg)
    |> List.fold_left (fun acc v -> Var.Set.add v acc) Var.Set.empty
  in
  (* Return positions per variable. *)
  let ret_positions v =
    List.filter_map
      (fun (u : Seg.use) ->
        match u.Seg.ukind with
        | Seg.Ret_op j when Var.equal u.Seg.uvar v -> Some j
        | _ -> None)
      (Seg.uses_of seg v)
  in
  (* Per-parameter reachability. *)
  let vf1 = ref [] and vf3 = ref [] and vf4 = ref [] in
  let source_set =
    List.fold_left (fun acc v -> Var.Set.add v acc) Var.Set.empty sources
  in
  List.iteri
    (fun idx0 (p : Var.t) ->
      let i = idx0 + 1 in
      let reach = reach_from seg t spec [ p ] in
      Var.Set.iter
        (fun v ->
          List.iter (fun j -> if not (List.mem (i, j) !vf1) then vf1 := (i, j) :: !vf1)
            (ret_positions v);
          if Var.Set.mem v source_set && not (List.mem i !vf3) then vf3 := i :: !vf3;
          if Var.Set.mem v sink_vars && not (List.mem i !vf4) then vf4 := i :: !vf4)
        reach)
    f.Func.params;
  (* VF2: sources reaching return positions. *)
  let vf2 =
    let reach = reach_from seg t spec sources in
    Var.Set.fold (fun v acc -> ret_positions v @ acc) reach []
    |> List.sort_uniq compare
  in
  {
    Vf.vf1 = List.sort compare !vf1;
    vf2;
    vf3 = List.sort compare !vf3;
    vf4 = List.sort compare !vf4;
  }

let generate (prog : Prog.t) (seg_of : string -> Seg.t option) (spec : Vf.spec) : t =
  let t : t = Hashtbl.create 64 in
  List.iter
    (fun scc ->
      List.iter
        (fun (f : Func.t) ->
          match seg_of f.Func.fname with
          | None -> ()
          | Some seg -> Hashtbl.replace t f.Func.fname (summarize seg t spec))
        scc)
    (Prog.bottom_up_sccs prog);
  t

let to_vf (t : t) : Vf.t =
  let vf = Vf.empty () in
  Hashtbl.iter (Vf.add vf) t;
  vf
