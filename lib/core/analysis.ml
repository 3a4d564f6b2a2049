module Metrics = Pinpoint_util.Metrics
module Resilience = Pinpoint_util.Resilience
module Seg = Pinpoint_seg.Seg
module Obs = Pinpoint_obs.Obs

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
  mutable engine : Metrics.measurement;  (* summed over checks *)
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
  checks : checks;
}

let seg_of t name = Hashtbl.find_opt t.segs name
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

(* Build the SEGs of [funcs] into [segs].  With a pool, one task per
   statement-weighted chunk of functions (DESIGN.md §4.15), not one per
   function; builds are per-function pure and the table writes happen
   positionally on this thread, so [segs] is identical at any [--jobs]. *)
let build_segs ?pool log ptas (funcs : Pinpoint_ir.Func.t array) segs =
  let build (f : Pinpoint_ir.Func.t) =
    match Hashtbl.find_opt ptas f.Pinpoint_ir.Func.fname with
    | Some pta -> build_seg log f pta
    | None -> None
  in
  let built =
    match pool with
    | Some p when Pinpoint_par.Pool.jobs p > 1 ->
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
  Array.iteri
    (fun i r ->
      match r with
      | Some (Some seg) ->
        Hashtbl.replace segs funcs.(i).Pinpoint_ir.Func.fname seg
      | _ -> ())
    built

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

(* Folds the worker domains' allocation into a phase measurement
   ([Gc.allocated_bytes] is domain-local). *)
let extra_alloc = function
  | Some p -> fun () -> Pinpoint_par.Pool.allocated_bytes p
  | None -> fun () -> 0.0

let prepare_with ?resilience ?pool frontend_m (prog : Pinpoint_ir.Prog.t)
    : t =
  let resilience =
    match resilience with Some r -> r | None -> Resilience.create ()
  in
  Option.iter
    (fun p -> Pinpoint_par.Pool.set_log p (Some resilience))
    pool;
  let extra_alloc = extra_alloc pool in
  let transform, tm =
    Metrics.measure ~extra_alloc (fun () ->
        Obs.span "transform" (fun () ->
            Pinpoint_transform.Transform.run ~resilience ?pool prog))
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
        let segs = Hashtbl.create 64 in
        build_segs ?pool resilience transform.Pinpoint_transform.Transform.ptas
          funcs segs;
        segs)
  in
  let rv, rm =
    Metrics.measure ~extra_alloc (fun () ->
        Obs.span "summary" (fun () ->
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
    checks =
      {
        vfs = Hashtbl.create 8;
        callers = None;
        vf_summary = Metrics.zero;
        engine = Metrics.zero;
      };
  }

let prepare ?resilience ?pool prog =
  prepare_with ?resilience ?pool Metrics.zero prog

let prepare_source ?pool ?(file = "<string>") src =
  let prog, fm =
    Metrics.measure (fun () ->
        Obs.span "lower"
          ~attrs:[ ("file", file) ]
          (fun () -> Pinpoint_frontend.Lower.compile_string ~file src))
  in
  prepare_with ?pool fm prog

let prepare_file ?pool path =
  let prog, fm =
    Metrics.measure (fun () ->
        Obs.span "lower"
          ~attrs:[ ("file", path) ]
          (fun () -> Pinpoint_frontend.Lower.compile_file path))
  in
  prepare_with ?pool fm prog

let prepare_files ?pool paths =
  let prog, fm =
    Metrics.measure (fun () ->
        Obs.span "lower"
          ~attrs:[ ("files", string_of_int (List.length paths)) ]
          (fun () -> Pinpoint_frontend.Lower.compile_files paths))
  in
  prepare_with ?pool fm prog

let seg_size t =
  Hashtbl.fold
    (fun _ seg (v, e) -> (v + Seg.n_vertices seg, e + Seg.n_edges seg))
    t.segs (0, 0)

module Vf = Pinpoint_summary.Vf

(* Add one pass to a phase's running total and publish the total as the
   phase's gauges. *)
let accumulate name total (m : Metrics.measurement) =
  let acc = Metrics.add total m in
  if Obs.metrics_on () then begin
    Obs.set_gauge (Obs.gauge ("phase." ^ name ^ ".wall_s")) acc.Metrics.wall_s;
    Obs.set_gauge
      (Obs.gauge ("phase." ^ name ^ ".alloc_bytes"))
      acc.Metrics.alloc_bytes
  end;
  acc

(* One VF pass for [specs] (the requesting checker first) behind one
   barrier and span.  The tables are kept resident.  On a crash nothing is
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
  t.checks.vf_summary <- accumulate "vf_summary" t.checks.vf_summary m;
  Option.iter
    (List.iter2
       (fun (spec : Checker_spec.t) vf ->
         Hashtbl.replace t.checks.vfs spec.Checker_spec.name (spec, vf))
       specs)
    tables

(* Resident tables are reused only for the very spec they were built for:
   a custom checker may reuse a built-in's name. *)
let resident_vf t (spec : Checker_spec.t) =
  match Hashtbl.find_opt t.checks.vfs spec.Checker_spec.name with
  | Some (s, vf) when s == spec -> Some vf
  | _ -> None

(* The checker's VF table: resident, or built with the rest of its
   class — the built-in checkers of the same class that have no table
   yet. *)
let vf_for t (spec : Checker_spec.t) =
  match resident_vf t spec with
  | Some _ as r -> r
  | None ->
    let others =
      List.filter (fun c -> resident_vf t c = None) (Checkers.class_mates spec)
    in
    generate_class t (spec :: others);
    resident_vf t spec

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
  let result, m =
    Metrics.measure ~extra_alloc:(extra_alloc t.pool) (fun () ->
        Engine.run ~config ~resilience:t.resilience ?pool:t.pool ~vf
          ~callers:(callers t) t.prog ~seg_of:(seg_of t) ~rv:t.rv spec)
  in
  t.checks.engine <- accumulate "engine" t.checks.engine m;
  result

let check_all ?config t specs =
  List.map
    (fun (spec : Checker_spec.t) ->
      let reports, stats = check ?config t spec in
      (spec.Checker_spec.name, reports, stats))
    specs
