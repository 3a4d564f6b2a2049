open Pinpoint_ir
module E = Pinpoint_smt.Expr
module Seg = Pinpoint_seg.Seg

type entry = { var : Var.t; closed : E.t; params : Var.Set.t }

type t = {
  tbl : (string, entry option array) Hashtbl.t;
  seg_of : string -> Seg.t option;
}

let max_close_depth = ref 6
let max_summary_size = ref 4000

let find t name = Hashtbl.find_opt t.tbl name

(* Close a constraint: resolve its receiver dependences with callee RV
   summaries, cloning callee symbols and binding callee formals to actual
   terms; recursively pull in the data dependence of those actuals.
   [lookup] abstracts the summary table: during parallel generation it
   routes through a per-SCC overlay + locked shared table, at engine time
   it is a plain (read-only) [Hashtbl.find_opt]. *)
let rec close_cres t ~lookup (seg : Seg.t) depth (cres : Seg.cres) :
    E.t * Var.Set.t =
  if depth <= 0 then (cres.Seg.f, cres.Seg.params)
  else begin
    let acc_f = ref cres.Seg.f in
    let acc_p = ref cres.Seg.params in
    List.iter
      (fun (r : Seg.recv_dep) ->
        match lookup r.Seg.callee with
        | Some entries
          when r.Seg.ret_index >= 0 && r.Seg.ret_index < Array.length entries -> (
          match entries.(r.Seg.ret_index) with
          | Some sum ->
            let frame =
              Clone.create (Printf.sprintf "%s_s%d" r.Seg.callee r.Seg.call_sid)
            in
            (* ① the receiver equals the returned value *)
            Clone.bind frame (Var.symbol sum.var) (Var.term r.Seg.rvar);
            (* ③ callee formals are the actual terms *)
            (match t.seg_of r.Seg.callee with
            | Some callee_seg ->
              let callee_params = (Seg.func callee_seg).Func.params in
              List.iteri
                (fun i (p : Var.t) ->
                  if Var.Set.mem p sum.params then
                    match List.nth_opt r.Seg.args i with
                    | Some actual ->
                      Clone.bind frame (Var.symbol p) (Stmt.operand_term actual);
                      (* pull in the actual's own data dependence *)
                      (match actual with
                      | Stmt.Ovar av ->
                        let f', p' =
                          close_cres t ~lookup seg (depth - 1) (Seg.dd seg av)
                        in
                        acc_f := E.and_ !acc_f f';
                        acc_p := Var.Set.union !acc_p p'
                      | _ -> ())
                    | None -> ())
                callee_params
            | None -> ());
            (* ② the callee's closed range constraint, cloned *)
            acc_f := E.and_ !acc_f (Clone.subst frame sum.closed)
          | None -> ())
        | _ -> () (* unknown callee / SCC-internal: receiver stays free *))
      cres.Seg.recvs;
    if E.size !acc_f > !max_summary_size then (cres.Seg.f, cres.Seg.params)
    else (!acc_f, !acc_p)
  end

let close t seg ?(depth = !max_close_depth) cres =
  close_cres t ~lookup:(find t) seg depth cres

module R = Pinpoint_util.Resilience

(* One unit of bottom-up work: the RV entries of every member of one SCC.
   [lookup]/[put] abstract the summary table (direct in the sequential
   order; overlay + locked shared table on the pool) — the member order is
   the same either way, so so are the generated summaries. *)
let process_scc ?resilience t ~lookup ~put (scc : Func.t list) =
  List.iter
    (fun (f : Func.t) ->
      match t.seg_of f.Func.fname with
      | None -> ()
      | Some seg ->
        (* Per-function barrier: a crash while closing one function's
           summary leaves it without an RV entry (its receivers stay
           unconstrained — soundy) instead of aborting the phase. *)
        let entries =
          R.protect ?log:resilience ~phase:R.Rv_summary ~subject:f.Func.fname
            ~fallback_note:"no RV summary (receivers stay free)" ~fallback:None
            (fun () ->
              match Func.return_stmt f with
              | Some { Stmt.kind = Stmt.Return ops; _ } ->
                Some
                  (Array.of_list
                     (List.map
                        (function
                          | Stmt.Ovar v ->
                            let cres = Seg.dd seg v in
                            let closed, params =
                              close_cres t ~lookup seg !max_close_depth cres
                            in
                            let closed =
                              if E.size closed > !max_summary_size then E.tru
                              else closed
                            in
                            Some { var = v; closed; params }
                          | _ -> None)
                        ops))
              | _ -> Some [||])
        in
        Option.iter (put f.Func.fname) entries)
    scc

let generate ?resilience ?pool (prog : Prog.t)
    (seg_of : string -> Seg.t option) : t =
  let t = { tbl = Hashtbl.create 64; seg_of } in
  (match pool with
  | Some pool when Pinpoint_par.Pool.jobs pool > 1 ->
    (* Batched SCC wave (DESIGN.md §4.15): simultaneously-ready components
       are mutually independent, so one task processes a whole batch
       against a single batch-local overlay and publishes it with one lock
       acquisition instead of one per component.  Summary closure chases
       callee entries transitively (unlike the transform's one-level
       interface lookups), so reads keep the locked fallback — the
       overlay still absorbs every same-batch lookup. *)
    let g, funcs = Prog.call_graph prog in
    let weights =
      Array.map
        (fun (f : Func.t) ->
          let n = ref 0 in
          Func.iter_blocks f (fun blk -> n := !n + List.length blk.Func.stmts);
          !n)
        funcs
    in
    let lock = Mutex.create () in
    Pinpoint_par.Sched.run_bottom_up_batched ~weights pool g (fun batch ->
        let overlay = Hashtbl.create 16 in
        let lookup name =
          match Hashtbl.find_opt overlay name with
          | Some _ as r -> r
          | None -> Mutex.protect lock (fun () -> Hashtbl.find_opt t.tbl name)
        in
        List.iter
          (fun members ->
            let scc = List.map (fun i -> funcs.(i)) members in
            process_scc ?resilience t ~lookup ~put:(Hashtbl.replace overlay)
              scc)
          batch;
        Mutex.protect lock (fun () ->
            Hashtbl.iter (Hashtbl.replace t.tbl) overlay))
  | _ ->
    List.iter
      (process_scc ?resilience t
         ~lookup:(Hashtbl.find_opt t.tbl)
         ~put:(Hashtbl.replace t.tbl))
      (Prog.bottom_up_sccs prog));
  t

(* Incremental regeneration (DESIGN.md §4.13): drop the dirty entries,
   then redo the dirty SCCs bottom-up against the retained clean entries.
   [dirty] is caller-closed (see {!Pinpoint_transform.Transform.update}),
   so a clean function's summary — which depends only on its own SEG and
   its callees' summaries — is exactly what a full regenerate would
   produce, by induction over the bottom-up order. *)
let remove (t : t) name = Hashtbl.remove t.tbl name

let update ?resilience (t : t) (prog : Prog.t) ~(dirty : string -> bool) =
  List.iter
    (fun (f : Func.t) -> if dirty f.Func.fname then remove t f.Func.fname)
    (Prog.functions prog);
  List.iter
    (fun scc ->
      if List.exists (fun (f : Func.t) -> dirty f.Func.fname) scc then
        process_scc ?resilience t ~lookup:(find t)
          ~put:(Hashtbl.replace t.tbl) scc)
    (Prog.bottom_up_sccs prog)

let pp ppf t =
  Hashtbl.iter
    (fun name entries ->
      Format.fprintf ppf "RV %s:@." name;
      Array.iteri
        (fun i e ->
          match e with
          | Some e ->
            Format.fprintf ppf "  [%d] %s: %a  (P={%a})@." i e.var.Var.name E.pp
              e.closed
              (Pinpoint_util.Pp.list Var.pp)
              (Var.Set.elements e.params)
          | None -> Format.fprintf ppf "  [%d] -@." i)
        entries)
    t.tbl
