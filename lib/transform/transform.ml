open Pinpoint_ir
module Pta = Pinpoint_pta.Pta

type iface = {
  ref_paths : (int * int * Var.t) list;
  mod_paths : (int * int * Var.t) list;
  has_orig_ret : bool;
}

type result = {
  ifaces : (string, iface) Hashtbl.t;
  ptas : (string, Pta.t) Hashtbl.t;
}

let max_conduits = ref 64

let nth_param (f : Func.t) idx = List.nth_opt f.Func.params (idx - 1)

(* Rewrite the call sites in [f] whose callee interface is known.
   [iface_of] abstracts the interface table so the parallel driver can
   route lookups through a per-SCC overlay + locked shared table. *)
let rewrite_calls (f : Func.t) (iface_of : string -> iface option) =
  Func.iter_blocks f (fun blk ->
      let stmts' =
        List.concat_map
          (fun (s : Stmt.t) ->
            match s.Stmt.kind with
            | Stmt.Call c -> (
              match iface_of c.Stmt.callee with
              | None -> [ s ]
              | Some iface ->
                let before = ref [] and after = ref [] in
                let orig_args = c.Stmt.args in
                (* Fig. 3b: A_i <- *(u_j, k) for each callee REF path. *)
                List.iter
                  (fun (j, k, _fvar) ->
                    match List.nth_opt orig_args (j - 1) with
                    | Some (Stmt.Ovar u) when Ty.deref_k u.Var.ty k <> None ->
                      let ty =
                        match Ty.deref_k u.Var.ty k with
                        | Some t -> t
                        | None -> assert false
                      in
                      let a =
                        Var.make f.Func.vgen
                          ~kind:(Var.Aux_actual { arg_index = j })
                          (Printf.sprintf "A%d_%d" j k)
                          ty
                      in
                      before :=
                        Stmt.make f.Func.sgen ~loc:s.Stmt.loc
                          (Stmt.Load (a, Stmt.Ovar u, k))
                        :: !before;
                      c.Stmt.args <- c.Stmt.args @ [ Stmt.Ovar a ]
                    | _ ->
                      (* Non-variable actual (e.g. null): pass a dummy so the
                         arity still matches; the callee's F stays free. *)
                      c.Stmt.args <- c.Stmt.args @ [ Stmt.Oint 0 ])
                  iface.ref_paths;
                (* Fig. 3b: *(u_q, r) <- C_p for each callee MOD path. *)
                let orig_recv =
                  if iface.has_orig_ret then List.nth_opt c.Stmt.recvs 0 else None
                in
                List.iteri
                  (fun p (q, r, rvar) ->
                    let base =
                      if q = 0 then Option.map (fun v -> Stmt.Ovar v) orig_recv
                      else
                        match List.nth_opt orig_args (q - 1) with
                        | Some (Stmt.Ovar u) when Ty.deref_k u.Var.ty r <> None ->
                          Some (Stmt.Ovar u)
                        | _ -> None
                    in
                    let cv =
                      Var.make f.Func.vgen
                        ~kind:(Var.Aux_receiver { ret_index = p })
                        (Printf.sprintf "C%d_%d" q r)
                        rvar.Var.ty
                    in
                    c.Stmt.recvs <- c.Stmt.recvs @ [ cv ];
                    match base with
                    | Some b ->
                      after :=
                        Stmt.make f.Func.sgen ~loc:s.Stmt.loc
                          (Stmt.Store (b, r, Stmt.Ovar cv))
                        :: !after
                    | None -> ())
                  iface.mod_paths;
                List.rev !before @ [ s ] @ List.rev !after)
            | _ -> [ s ])
          blk.Func.stmts
      in
      blk.Func.stmts <- stmts')

(* Expose [f]'s own side effects on its interface (Fig. 3a). *)
let expose_side_effects (f : Func.t) (pta : Pta.t) : iface =
  (* REF paths must include every formal-rooted MOD path: the exit load of
     a conditionally-modified location reads its incoming value. *)
  let formal_mods = List.filter (fun (root, _) -> root >= 1) pta.Pta.mods in
  let refs =
    List.sort_uniq compare (pta.Pta.refs @ formal_mods)
    |> List.filter (fun (_, d) -> d <= !Pta.max_depth)
  in
  let mods = List.sort_uniq compare pta.Pta.mods in
  let refs, mods =
    (* Conduit cap (summary explosion guard). *)
    let take n l = List.filteri (fun i _ -> i < n) l in
    (take !max_conduits refs, take !max_conduits mods)
  in
  (* Aux formal parameters + entry stores, shallow paths first. *)
  let ref_paths =
    List.filter_map
      (fun (j, k) ->
        match nth_param f j with
        | Some p when p.Var.kind = Var.Formal -> (
          match Ty.deref_k p.Var.ty k with
          | Some ty ->
            let fv =
              Var.make f.Func.vgen
                ~kind:(Var.Aux_formal { root = p; depth = k })
                (Printf.sprintf "F%d_%d" j k)
                ty
            in
            Some (j, k, fv)
          | None -> None)
        | _ -> None)
      refs
  in
  let by_depth (_, d1, _) (_, d2, _) = Int.compare d1 d2 in
  List.iter
    (fun (j, k, fv) ->
      match nth_param f j with
      | Some p ->
        f.Func.params <- f.Func.params @ [ fv ];
        Func.prepend_entry f
          (Stmt.make f.Func.sgen (Stmt.Store (Stmt.Ovar p, k, Stmt.Ovar fv)))
      | None -> ())
    (* prepend_entry reverses order, so insert deepest first *)
    (List.rev (List.sort by_depth ref_paths));
  (* Aux return values + exit loads + extended return. *)
  let ret_stmt = Func.return_stmt f in
  let ret_root_var =
    match ret_stmt with
    | Some { Stmt.kind = Stmt.Return (Stmt.Ovar v :: _); _ } -> Some v
    | _ -> None
  in
  let mod_paths =
    List.filter_map
      (fun (q, r) ->
        let root =
          if q = 0 then ret_root_var
          else
            match nth_param f q with
            | Some p when p.Var.kind = Var.Formal -> Some p
            | _ -> None
        in
        match root with
        | Some rootv -> (
          match Ty.deref_k rootv.Var.ty r with
          | Some ty ->
            let rv =
              Var.make f.Func.vgen
                ~kind:(Var.Aux_return { root = rootv; depth = r })
                (Printf.sprintf "R%d_%d" q r)
                ty
            in
            Some (q, r, rv, rootv)
          | None -> None)
        | None -> None)
      mods
  in
  (* Insert the exit loads just before the Return statement. *)
  (match ret_stmt with
  | Some ret ->
    let exit_blk = Func.block f f.Func.exit_ in
    let loads =
      List.map
        (fun (_, r, rv, rootv) ->
          Stmt.make f.Func.sgen (Stmt.Load (rv, Stmt.Ovar rootv, r)))
        mod_paths
    in
    let rec insert = function
      | [] -> loads @ [ ret ]
      | s :: rest when Stmt.equal s ret -> loads @ (s :: rest)
      | s :: rest -> s :: insert rest
    in
    exit_blk.Func.stmts <-
      insert (List.filter (fun s -> not (List.memq s loads)) exit_blk.Func.stmts);
    (match ret.Stmt.kind with
    | Stmt.Return ops ->
      ret.Stmt.kind <-
        Stmt.Return (ops @ List.map (fun (_, _, rv, _) -> Stmt.Ovar rv) mod_paths)
    | _ -> ())
  | None -> ());
  {
    ref_paths;
    mod_paths = List.map (fun (q, r, rv, _) -> (q, r, rv)) mod_paths;
    has_orig_ret = f.Func.ret_ty <> None;
  }

module R = Pinpoint_util.Resilience

(* One unit of bottom-up work: both stages for every member of one SCC.
   Within an SCC, a member processed earlier publishes its interface for
   later members (mutual recursion keeps only the not-yet-seen calls
   un-rewritten); [iface_of]/[put_iface]/[flush_ifaces]/[put_pta] abstract
   whether publication goes straight to the result tables (sequential) or
   through a task-local overlay merged under a lock (parallel) — the
   within-SCC processing order, and thus every id and formula, is the same
   either way.  Each per-function unit runs inside an exception barrier: a
   crash leaves that function without an interface (callers treat it as
   unknown, soundy) instead of killing the whole pipeline. *)
let process_scc ?resilience ~iface_of ~put_iface ~flush_ifaces ~put_pta
    (scc : Func.t list) =
  List.iter
    (fun (f : Func.t) ->
      R.protect ?log:resilience ~phase:R.Transform ~subject:f.Func.fname
        ~fallback_note:"function left untransformed (unknown interface)"
        ~fallback:()
        (fun () ->
          rewrite_calls f iface_of;
          let pta1 =
            Pinpoint_obs.Obs.span "pta"
              ~attrs:[ ("fn", f.Func.fname); ("stage", "discover") ]
              (fun () -> Pta.run ~discover:true f)
          in
          let iface = expose_side_effects f pta1 in
          put_iface f.Func.fname iface))
    scc;
  flush_ifaces ();
  (* Second stage per SCC member: final PTA on the transformed body. *)
  List.iter
    (fun (f : Func.t) ->
      R.protect ?log:resilience ~phase:R.Transform ~subject:f.Func.fname
        ~fallback_note:"no points-to result (function gets no SEG)"
        ~fallback:()
        (fun () ->
          let pta2 =
            Pinpoint_obs.Obs.span "pta"
              ~attrs:[ ("fn", f.Func.fname); ("stage", "final") ]
              (fun () -> Pta.run ~discover:false f)
          in
          put_pta f.Func.fname pta2))
    scc

let fn_weight (f : Func.t) =
  let n = ref 0 in
  Func.iter_blocks f (fun blk -> n := !n + List.length blk.Func.stmts);
  !n

(* Distinct callee names of a set of functions — computed {e before} any
   rewriting, which neither renames callees nor adds call statements, so
   the scan is a complete upper bound on what [iface_of] will ask for. *)
let callee_names (fs : Func.t list) =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun f ->
      Func.iter_blocks f (fun blk ->
          List.iter
            (fun (s : Stmt.t) ->
              match s.Stmt.kind with
              | Stmt.Call c ->
                if not (Hashtbl.mem seen c.Stmt.callee) then
                  Hashtbl.add seen c.Stmt.callee ()
              | _ -> ())
            blk.Func.stmts))
    fs;
  Hashtbl.fold (fun k () acc -> k :: acc) seen []

(* Parallel bottom-up driver shared by [run] and [update] (DESIGN.md
   §4.15): one pool task per batch of simultaneously-ready (hence mutually
   independent) components.  The batch keeps a local interface overlay,
   prefetches the already-published cross-batch callee interfaces in a
   single lock acquisition, and flushes its interfaces and points-to
   results in one more — per-component locking is gone.  A callee is
   either in the same SCC (overlay), in a completed component (prefetch
   cache; the batch can't depend on a sibling batch member because
   simultaneously-ready components form an antichain), or unknown — the
   locked fallback lookup is only a safety net and never hits. *)
let run_batched ?resilience pool
    ((g, funcs) : Pinpoint_util.Digraph.t * Func.t array)
    ~(ifaces : (string, iface) Hashtbl.t)
    ~(put_ptas : (string * Pta.t) list -> unit) =
  let weights = Array.map fn_weight funcs in
  let lock = Mutex.create () in
  Pinpoint_par.Sched.run_bottom_up_batched ~weights pool g (fun batch ->
      let sccs = List.map (List.map (fun i -> funcs.(i))) batch in
      let overlay : (string, iface) Hashtbl.t = Hashtbl.create 16 in
      let cache : (string, iface) Hashtbl.t = Hashtbl.create 64 in
      let names = callee_names (List.concat sccs) in
      Mutex.protect lock (fun () ->
          List.iter
            (fun name ->
              match Hashtbl.find_opt ifaces name with
              | Some i -> Hashtbl.replace cache name i
              | None -> ())
            names);
      let batch_ptas = ref [] in
      List.iter
        (process_scc ?resilience
           ~iface_of:(fun name ->
             match Hashtbl.find_opt overlay name with
             | Some _ as r -> r
             | None -> (
               match Hashtbl.find_opt cache name with
               | Some _ as r -> r
               | None ->
                 Mutex.protect lock (fun () -> Hashtbl.find_opt ifaces name)))
           ~put_iface:(Hashtbl.replace overlay)
           ~flush_ifaces:(fun () -> ())
           ~put_pta:(fun name pta -> batch_ptas := (name, pta) :: !batch_ptas))
        sccs;
      Mutex.protect lock (fun () ->
          Hashtbl.iter (Hashtbl.replace ifaces) overlay;
          put_ptas !batch_ptas))

let run ?resilience ?pool (prog : Prog.t) : result =
  let ifaces : (string, iface) Hashtbl.t = Hashtbl.create 64 in
  let ptas : (string, Pta.t) Hashtbl.t = Hashtbl.create 64 in
  (match pool with
  | Some pool when Pinpoint_par.Pool.jobs pool > 1 ->
    (* SCC-wave parallel path: a component starts once all its callee
       components are done, so every cross-SCC [iface_of] lookup finds
       exactly what the sequential order would have found. *)
    run_batched ?resilience pool (Prog.call_graph prog) ~ifaces
      ~put_ptas:(List.iter (fun (name, pta) -> Hashtbl.replace ptas name pta))
  | _ ->
    List.iter
      (process_scc ?resilience
         ~iface_of:(Hashtbl.find_opt ifaces)
         ~put_iface:(Hashtbl.replace ifaces)
         ~flush_ifaces:(fun () -> ())
         ~put_pta:(Hashtbl.replace ptas))
      (Prog.bottom_up_sccs prog));
  { ifaces; ptas }

let remove (t : result) name =
  Hashtbl.remove t.ifaces name;
  Hashtbl.remove t.ptas name

(* Incremental re-transformation (DESIGN.md §4.13).  [dirty] names the
   functions whose bodies were re-lowered (fresh, untransformed IR) — by
   construction of the invalidation cone this set is closed under "is a
   transitive caller of", so every SCC is either entirely dirty or entirely
   clean, and the cone's own call graph orders its SCCs exactly as the
   whole program's does ({!Prog.cone_sccs}).  Dirty entries are dropped
   first: during reprocessing a same-SCC member not yet reprocessed must
   look unknown, exactly as it does in a from-scratch bottom-up run — with
   that, induction over the bottom-up SCC order gives interfaces and
   points-to results identical to a full [run] on the same program. *)
let update ?resilience ?pool (t : result) (prog : Prog.t)
    ~(dirty : string -> bool) =
  match pool with
  | Some pool when Pinpoint_par.Pool.jobs pool > 1 ->
    (* Same batched wave as [run], over the cone's graph; clean
       interfaces stay in [t.ifaces], visible to the prefetch. *)
    let ((_, funcs) as cone) = Prog.cone_graph prog ~mem:dirty in
    Array.iter (fun (f : Func.t) -> remove t f.Func.fname) funcs;
    run_batched ?resilience pool cone ~ifaces:t.ifaces
      ~put_ptas:
        (List.iter (fun (name, pta) -> Hashtbl.replace t.ptas name pta))
  | _ ->
    let sccs = Prog.cone_sccs prog ~mem:dirty in
    List.iter (List.iter (fun (f : Func.t) -> remove t f.Func.fname)) sccs;
    List.iter
      (process_scc ?resilience
         ~iface_of:(Hashtbl.find_opt t.ifaces)
         ~put_iface:(Hashtbl.replace t.ifaces)
         ~flush_ifaces:(fun () -> ())
         ~put_pta:(Hashtbl.replace t.ptas))
      sccs

let pp_iface ppf i =
  Format.fprintf ppf "refs: %a; mods: %a%s"
    (Pinpoint_util.Pp.list (fun ppf (j, k, v) ->
         Format.fprintf ppf "*(p%d,%d)->%s" j k v.Var.name))
    i.ref_paths
    (Pinpoint_util.Pp.list (fun ppf (q, r, v) ->
         Format.fprintf ppf "*(%s,%d)->%s"
           (if q = 0 then "ret" else Printf.sprintf "p%d" q)
           r v.Var.name))
    i.mod_paths
    (if i.has_orig_ret then " (+ret)" else "")
