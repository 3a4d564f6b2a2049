module Metrics = Pinpoint_util.Metrics
module Resilience = Pinpoint_util.Resilience
module Seg = Pinpoint_seg.Seg
module Obs = Pinpoint_obs.Obs
module Store = Pinpoint_store.Store

type phase_metrics = {
  frontend : Metrics.measurement;
  transform : Metrics.measurement;
  seg_build : Metrics.measurement;
  summaries : Metrics.measurement;
}

(* What checker runs over one prepared program share, built on first use:
   VF tables per checker (a whole value-flow class at a time) and the
   engine's reverse call index. *)
type checks = {
  vfs : (string, Checker_spec.t * Pinpoint_summary.Vf.t) Hashtbl.t;
  mutable callers : Engine.callers option;
  mutable vf_summary : Metrics.measurement;  (* summed over class passes *)
}

type t = {
  prog : Pinpoint_ir.Prog.t;
  transform : Pinpoint_transform.Transform.result;
  segs : (string, Seg.t) Hashtbl.t;
  rv : Pinpoint_summary.Rv.t;
  metrics : phase_metrics;
  resilience : Resilience.log;
  pool : Pinpoint_par.Pool.t option;
      (* carried so [check] fans its per-source searches out too *)
  store : Store.t option;
      (* disk-resident artifact store; when present [segs] stays empty
         and lookups fault artifacts back in through the LRU *)
  checks : checks;
}

let seg_of t name =
  match t.store with
  | Some st -> Store.seg_of st name
  | None -> Hashtbl.find_opt t.segs name

let store t = t.store
let incidents t = Resilience.incidents t.resilience

(* Build one function's SEG behind an exception barrier, consulting the
   fault injector: a dropped SEG is skipped outright, a truncated one keeps
   only half of each vertex's out-edges, a crash is raised inside the
   barrier so it lands in the incident log like any organic crash. *)
let build_seg log (f : Pinpoint_ir.Func.t) pta : Seg.t option =
  let fname = f.Pinpoint_ir.Func.fname in
  let fault =
    if Resilience.Inject.enabled () then Resilience.Inject.seg_fault fname
    else None
  in
  match fault with
  | Some Resilience.Inject.Seg_drop ->
    Resilience.record log
      {
        Resilience.phase = Resilience.Seg_build;
        subject = fname;
        detail = "injected: seg-drop";
        fallback = "function gets no SEG";
        elapsed_s = 0.0;
      };
    None
  | _ ->
    Resilience.protect ~log ~phase:Resilience.Seg_build ~subject:fname
      ~fallback_note:"function gets no SEG" ~fallback:None
      (fun () ->
        if fault = Some Resilience.Inject.Seg_crash then
          raise Resilience.Injected_crash;
        let seg = Seg.build f pta in
        match fault with
        | Some Resilience.Inject.Seg_truncate ->
          Resilience.record log
            {
              Resilience.phase = Resilience.Seg_build;
              subject = fname;
              detail = "injected: seg-truncate";
              fallback = "SEG truncated to half of its out-edges";
              elapsed_s = 0.0;
            };
          Some (Seg.truncate seg ~keep:0.5)
        | _ -> Some seg)

let build_seg log f pta =
  Obs.span "seg.build"
    ~attrs:[ ("fn", f.Pinpoint_ir.Func.fname) ]
    (fun () -> build_seg log f pta)

(* Force every variable's SMT symbol in program order.  [Var.symbol] is
   lazy and the symbol registry assigns ids in creation order; forcing
   them here — sequentially, after the transform has added its conduit
   variables — pins the id assignment to program order so the parallel
   phases that follow only ever read existing symbols. *)
let force_symbols (prog : Pinpoint_ir.Prog.t) =
  List.iter
    (fun (f : Pinpoint_ir.Func.t) ->
      List.iter
        (fun v -> ignore (Pinpoint_ir.Var.symbol v))
        f.Pinpoint_ir.Func.params;
      Pinpoint_ir.Func.iter_stmts f (fun _ s ->
          List.iter
            (fun v -> ignore (Pinpoint_ir.Var.symbol v))
            (Pinpoint_ir.Stmt.def s);
          List.iter
            (fun v -> ignore (Pinpoint_ir.Var.symbol v))
            (Pinpoint_ir.Stmt.uses s)))
    (Pinpoint_ir.Prog.functions prog)

let prepare_with ?resilience ?pool ?store frontend_m (prog : Pinpoint_ir.Prog.t)
    : t =
  let resilience =
    match resilience with Some r -> r | None -> Resilience.create ()
  in
  Option.iter (fun st -> Store.register_program st prog) store;
  Option.iter
    (fun p -> Pinpoint_par.Pool.set_log p (Some resilience))
    pool;
  (* Fold the worker domains' allocation into each phase measurement
     ([Gc.allocated_bytes] is domain-local). *)
  let extra_alloc =
    match pool with
    | Some p -> fun () -> Pinpoint_par.Pool.allocated_bytes p
    | None -> fun () -> 0.0
  in
  let transform, tm =
    Metrics.measure ~extra_alloc (fun () ->
        Obs.span "transform" (fun () ->
            match store with
            | Some st ->
              (* Spill mode: points-to results stream to the store per
                 SCC instead of accumulating; [transform.ptas] stays
                 empty.  Sequential — the id/symbol order is the one the
                 sequential path produces, so artifacts decode to the
                 exact objects a store-off run would hold. *)
              Pinpoint_transform.Transform.run ~resilience
                ~pta_sink:(Store.put_pta st) prog
            | None -> Pinpoint_transform.Transform.run ~resilience ?pool prog))
  in
  let segs, sm =
    Metrics.measure ~extra_alloc (fun () ->
        Obs.span "seg.build.all" @@ fun () ->
        (* Sequential prologue pinning allocation-ordered ids to program
           order (symbols, abstract heap addresses) — after this, SEG
           builds are order-independent and can fan out. *)
        force_symbols prog;
        let funcs = Array.of_list (Pinpoint_ir.Prog.functions prog) in
        Seg.reserve_addresses (Array.to_list funcs);
        match store with
        | Some st ->
          (* Sequential build-and-spill: fault each function's PTA back
             in (bounded by the store LRU), build its SEG, spill it.
             Peak heap is one function plus the LRU, not the program. *)
          Array.iter
            (fun (f : Pinpoint_ir.Func.t) ->
              let fname = f.Pinpoint_ir.Func.fname in
              Resilience.protect ~log:resilience ~phase:Resilience.Seg_build
                ~subject:fname ~fallback_note:"function gets no SEG"
                ~fallback:()
                (fun () ->
                  match Store.pta_of st fname with
                  | None -> ()
                  | Some pta -> (
                    match build_seg resilience f pta with
                    | Some seg -> Store.put_seg st fname seg
                    | None -> ())))
            funcs;
          Hashtbl.create 1
        | None ->
          let build (f : Pinpoint_ir.Func.t) =
            match
              Hashtbl.find_opt transform.Pinpoint_transform.Transform.ptas
                f.Pinpoint_ir.Func.fname
            with
            | Some pta -> build_seg resilience f pta
            | None -> None
          in
          let built =
            match pool with
            | Some p when Pinpoint_par.Pool.jobs p > 1 ->
              (* One pool task per statement-weighted chunk of functions
                 (DESIGN.md §4.15), not one per function. *)
              let weights =
                Array.map
                  (fun (f : Pinpoint_ir.Func.t) ->
                    let n = ref 0 in
                    Pinpoint_ir.Func.iter_blocks f (fun blk ->
                        n := !n + List.length blk.Pinpoint_ir.Func.stmts);
                    !n)
                  funcs
              in
              Pinpoint_par.Chunk.parallel_map ~weights p build funcs
            | _ -> Array.map (fun f -> Some (build f)) funcs
          in
          let segs = Hashtbl.create 64 in
          Array.iteri
            (fun i r ->
              match r with
              | Some (Some seg) ->
                Hashtbl.replace segs funcs.(i).Pinpoint_ir.Func.fname seg
              | _ -> ())
            built;
          segs)
  in
  let rv, rm =
    Metrics.measure ~extra_alloc (fun () ->
        Obs.span "summary" (fun () ->
            match store with
            | Some st ->
              Pinpoint_summary.Rv.generate ~resilience
                ~backend:(Store.rv_backend st) prog (Store.seg_of st)
            | None ->
              Pinpoint_summary.Rv.generate ~resilience ?pool prog
                (Hashtbl.find_opt segs)))
  in
  if Obs.metrics_on () then begin
    let publish name (m : Metrics.measurement) =
      Obs.set_gauge (Obs.gauge ("phase." ^ name ^ ".wall_s")) m.Metrics.wall_s;
      Obs.set_gauge
        (Obs.gauge ("phase." ^ name ^ ".alloc_bytes"))
        m.Metrics.alloc_bytes
    in
    publish "frontend" frontend_m;
    publish "transform" tm;
    publish "seg_build" sm;
    publish "summaries" rm
  end;
  {
    prog;
    transform;
    segs;
    rv;
    metrics =
      { frontend = frontend_m; transform = tm; seg_build = sm; summaries = rm };
    resilience;
    pool;
    store;
    checks =
      { vfs = Hashtbl.create 8; callers = None; vf_summary = Metrics.zero };
  }

let prepare ?resilience ?pool ?store prog =
  prepare_with ?resilience ?pool ?store Metrics.zero prog

let prepare_source ?pool ?store ?(file = "<string>") src =
  let prog, fm =
    Metrics.measure (fun () ->
        Obs.span "lower"
          ~attrs:[ ("file", file) ]
          (fun () -> Pinpoint_frontend.Lower.compile_string ~file src))
  in
  prepare_with ?pool ?store fm prog

let prepare_file ?pool ?store path =
  let prog, fm =
    Metrics.measure (fun () ->
        Obs.span "lower"
          ~attrs:[ ("file", path) ]
          (fun () -> Pinpoint_frontend.Lower.compile_file path))
  in
  prepare_with ?pool ?store fm prog

let prepare_files ?pool ?store paths =
  let prog, fm =
    Metrics.measure (fun () ->
        Obs.span "lower"
          ~attrs:[ ("files", string_of_int (List.length paths)) ]
          (fun () -> Pinpoint_frontend.Lower.compile_files paths))
  in
  prepare_with ?pool ?store fm prog

let seg_size t =
  match t.store with
  | Some st -> Store.seg_sizes st
  | None ->
    Hashtbl.fold
      (fun _ seg (v, e) -> (v + Seg.n_vertices seg, e + Seg.n_edges seg))
      t.segs (0, 0)

module Vf = Pinpoint_summary.Vf

(* One VF pass for [specs] (the requesting checker first) behind one
   barrier and span.  The tables are kept resident and, in store mode
   before sealing, persisted per checker name.  On a crash nothing is
   kept: each later check of the class retries, and falls back like the
   engine does if it fails too. *)
let generate_class t (specs : Checker_spec.t list) =
  let names = List.map (fun (s : Checker_spec.t) -> s.Checker_spec.name) specs in
  let tables, m =
    Metrics.measure (fun () ->
        Resilience.protect ~log:t.resilience ~phase:Resilience.Vf_summary
          ~subject:(List.hd names)
          ~fallback_note:"empty VF summaries; VF pruning disabled"
          ~fallback:None
          (fun () ->
            Obs.span "summary.vf"
              ~attrs:[ ("checkers", String.concat "," names) ]
              (fun () ->
                Some
                  (Vf.generate_all t.prog (seg_of t)
                     (List.map Checker_spec.vf_spec specs)))))
  in
  let acc = Metrics.add t.checks.vf_summary m in
  t.checks.vf_summary <- acc;
  if Obs.metrics_on () then begin
    Obs.set_gauge (Obs.gauge "phase.vf_summary.wall_s") acc.Metrics.wall_s;
    Obs.set_gauge
      (Obs.gauge "phase.vf_summary.alloc_bytes")
      acc.Metrics.alloc_bytes
  end;
  Option.iter
    (List.iter2
       (fun (spec : Checker_spec.t) vf ->
         Hashtbl.replace t.checks.vfs spec.Checker_spec.name (spec, vf);
         match t.store with
         | Some st when not (Store.is_sealed st) ->
           Store.put_vf st spec.Checker_spec.name vf
         | _ -> ())
       specs)
    tables

(* Resident tables are reused only for the very spec they were built for:
   a custom checker may reuse a built-in's name. *)
let resident_vf t (spec : Checker_spec.t) =
  match Hashtbl.find_opt t.checks.vfs spec.Checker_spec.name with
  | Some (s, vf) when s == spec -> Some vf
  | _ -> None

let stored_vf t (spec : Checker_spec.t) =
  Option.bind t.store (fun st -> Store.vf_of st spec.Checker_spec.name)

(* The checker's VF table: resident, faulted from the store, or built
   with the rest of its class — the built-in checkers of the same class
   that have no table yet. *)
let vf_for t (spec : Checker_spec.t) =
  match resident_vf t spec with
  | Some _ as r -> r
  | None -> (
    match stored_vf t spec with
    | Some _ as r -> r
    | None ->
      let others =
        List.filter
          (fun c -> resident_vf t c = None && stored_vf t c = None)
          (Checkers.class_mates spec)
      in
      generate_class t (spec :: others);
      resident_vf t spec)

let seal_store t specs =
  match t.store with
  | None -> ()
  | Some st ->
    (match List.filter (fun s -> stored_vf t s = None) specs with
    | [] -> ()
    | missing -> generate_class t missing);
    Store.seal st

let callers t =
  match t.checks.callers with
  | Some c -> c
  | None ->
    let c = Engine.callers t.prog in
    t.checks.callers <- Some c;
    c

let check ?(config = Engine.default_config) t spec =
  (* On a VF generation crash mirror the engine's own fallback — empty
     table, pruning off. *)
  let config, vf =
    match vf_for t spec with
    | Some vf -> (config, vf)
    | None -> ({ config with Engine.use_vf_pruning = false }, Vf.empty ())
  in
  Engine.run ~config ~resilience:t.resilience ?pool:t.pool ~vf
    ~callers:(callers t) t.prog ~seg_of:(seg_of t) ~rv:t.rv spec

let check_all ?config t specs =
  List.map
    (fun (spec : Checker_spec.t) ->
      let reports, stats = check ?config t spec in
      (spec.Checker_spec.name, reports, stats))
    specs
