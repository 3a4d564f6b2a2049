(** The end-to-end Pinpoint pipeline (paper Figure 6):

    MC source → IR (SSA, gated) → call-site rewriting + Mod/Ref → connector
    transformation → SEG per function → RV summaries → demand-driven
    checking with SMT feasibility.

    Phase timings and allocation are captured for the benchmark harness
    (Figures 7–10). *)

type phase_metrics = {
  frontend : Pinpoint_util.Metrics.measurement;
  transform : Pinpoint_util.Metrics.measurement;  (** PTA + connectors *)
  seg_build : Pinpoint_util.Metrics.measurement;
  summaries : Pinpoint_util.Metrics.measurement;
}

type checks
(** State shared by the checker runs over one prepared program, built on
    first use by {!check}: the VF tables of each value-flow class and the
    engine's reverse call index. *)

type t = {
  prog : Pinpoint_ir.Prog.t;
  transform : Pinpoint_transform.Transform.result;
  segs : (string, Pinpoint_seg.Seg.t) Hashtbl.t;
  rv : Pinpoint_summary.Rv.t;
  metrics : phase_metrics;
  resilience : Pinpoint_util.Resilience.log;
      (** incident log shared by every phase and checker run of this
          analysis: per-function crashes (transform, SEG build, RV/VF
          summaries), per-source search crashes, solver degradations and
          injected faults all land here *)
  pool : Pinpoint_par.Pool.t option;
      (** the worker pool the preparation phases ran on, if any; [check]
          reuses it for its per-source fan-out *)
  checks : checks;
}

val seg_of : t -> string -> Pinpoint_seg.Seg.t option

val incidents : t -> Pinpoint_util.Resilience.incident list
(** Incidents accumulated so far, oldest first. *)

val build_seg :
  Pinpoint_util.Resilience.log ->
  Pinpoint_ir.Func.t ->
  Pinpoint_pta.Pta.t ->
  Pinpoint_seg.Seg.t option
(** Build one function's SEG behind the standard exception barrier,
    consulting the fault injector (drop / truncate / crash faults land in
    the incident log exactly as during {!prepare}).  Exposed for the
    analysis server's partial rebuilds (DESIGN.md §4.13) so incremental
    SEG construction shares the batch pipeline's fault envelope. *)

val build_segs :
  ?pool:Pinpoint_par.Pool.t ->
  Pinpoint_util.Resilience.log ->
  (string, Pinpoint_pta.Pta.t) Hashtbl.t ->
  Pinpoint_ir.Func.t array ->
  (string, Pinpoint_seg.Seg.t) Hashtbl.t ->
  unit
(** [build_segs log ptas funcs segs] builds, with {!build_seg}, the SEG
    of every function in [funcs] that has a points-to result in [ptas],
    and stores it in [segs].  Functions without a result, or whose build
    fails, get no SEG.  With [pool] (and more than one job) the builds
    fan out in statement-weighted chunks.  [segs] comes out identical at
    any job count.  {!prepare} and the analysis server's partial
    rebuilds share it. *)

val prepare :
  ?resilience:Pinpoint_util.Resilience.log ->
  ?pool:Pinpoint_par.Pool.t ->
  Pinpoint_ir.Prog.t ->
  t
(** Run every phase up to (and including) summary generation on an
    already-compiled program.  With [pool] (and more than one job) the
    transform and RV phases run as bottom-up SCC waves and SEG builds fan
    out per function; the result — SEGs, summaries, reports — is identical
    to a sequential run (DESIGN.md §4.9).  The pool's incident log is
    pointed at this analysis's {!t.resilience}.  With [resilience] the
    given log is used instead of a fresh one — the analysis server passes
    its long-lived capacity-capped log so incidents from successive
    (re)builds accumulate in one place.  Every per-function artifact
    (PTA, SEG, RV summary) stays resident. *)

val prepare_source :
  ?pool:Pinpoint_par.Pool.t ->
  ?file:string ->
  string ->
  t
(** Parse, compile and prepare MC source text. *)

val prepare_file : ?pool:Pinpoint_par.Pool.t -> string -> t

val prepare_files :
  ?pool:Pinpoint_par.Pool.t ->
  string list ->
  t
(** Parse, compile and prepare the concatenation of several MC files (in
    argument order) as one program — the batch twin of the analysis
    server's multi-file subject model. *)

val seg_size : t -> int * int
(** Total (vertices, edges) over all SEGs — the Figure 7/8 size metric. *)

val check :
  ?config:Engine.config -> t -> Checker_spec.t -> Report.t list * Engine.stats
(** Run one checker.  Its VF summary table comes from an earlier check
    of its value-flow class (checkers that agree on [follow_operands])
    or from one new pass that builds the tables of the
    whole class: the checker and every built-in checker of the class
    still without one.  The first check also builds the reverse call
    index every later check reuses.  Each pass adds to the
    [phase.vf_summary.wall_s] / [.alloc_bytes] gauges, and each engine
    run (the reverse-index build included) to [phase.engine.wall_s] /
    [.alloc_bytes].  On a generation crash the engine's fallback is
    mirrored — empty table, VF pruning disabled. *)

val check_all :
  ?config:Engine.config ->
  t ->
  Checker_spec.t list ->
  (string * Report.t list * Engine.stats) list
