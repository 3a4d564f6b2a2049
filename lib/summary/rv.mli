(** Return-value (RV) summaries (paper §3.3.2).

    An RV summary gives, for each (extended) return position of a
    function, the SEG vertex standing for the returned value, a constraint
    restricting its range — [DD(v@s)^P_∅], i.e. closed with respect to the
    function's own callees — and the subset [P] of formal parameters the
    constraint still depends on.

    Summaries are generated bottom-up over call-graph SCCs; calls into the
    same SCC are left unresolved (their receivers stay unconstrained —
    recursion unrolled once, §4.2).  Closing substitutes callee summaries
    with cloned symbols and binds callee formals to the caller's actual
    terms (the bold parts of Equation 2). *)

type entry = {
  var : Pinpoint_ir.Var.t;           (** the returned SEG vertex *)
  closed : Pinpoint_smt.Expr.t;      (** [DD(var)^P_∅] *)
  params : Pinpoint_ir.Var.Set.t;    (** the [P] set *)
}

type t

val max_close_depth : int ref
(** Call-chain depth budget when closing constraints (default 6 — the
    paper's "six levels of calls"). *)

val max_summary_size : int ref
(** Constraint size cap; larger summaries degrade to [true] (soundy:
    under-constraining keeps reports). *)

val generate :
  ?resilience:Pinpoint_util.Resilience.log ->
  ?pool:Pinpoint_par.Pool.t ->
  Pinpoint_ir.Prog.t ->
  (string -> Pinpoint_seg.Seg.t option) ->
  t
(** Generate summaries for every function of the program.  Each
    per-function unit runs inside an exception barrier: a crash records
    an incident on [resilience] (when given) and leaves that function
    without a summary — its receivers stay unconstrained (soundy) —
    instead of aborting the phase.  With [pool] (and more than one job)
    call-graph SCCs are processed as a bottom-up wave on the pool,
    producing the same summaries as the sequential order. *)

val update :
  ?resilience:Pinpoint_util.Resilience.log ->
  t ->
  Pinpoint_ir.Prog.t ->
  dirty:(string -> bool) ->
  unit
(** Incremental regeneration for the analysis server (DESIGN.md §4.13):
    drop the [dirty] functions' entries and redo the dirty SCCs bottom-up
    against the retained clean entries.  [dirty] must be closed under "is
    a transitive caller of a dirty function"; the summaries then equal a
    from-scratch {!generate} over the same program.  The [seg_of] closure
    given at {!generate} time is consulted again, so it must reflect the
    {e updated} SEG table (the server's table is mutated in place). *)

val remove : t -> string -> unit
(** Forget one function's summary (deleted functions). *)

val find : t -> string -> entry option array option
(** Per return position; [None] entries are non-variable returns. *)

val close :
  t ->
  Pinpoint_seg.Seg.t ->
  ?depth:int ->
  Pinpoint_seg.Seg.cres ->
  Pinpoint_smt.Expr.t * Pinpoint_ir.Var.Set.t
(** [close t seg cres] resolves the receiver dependences of a constraint
    using the summaries (Equation 2), returning the closed formula and the
    parameter set it still depends on.  Also used by the path-condition
    computation at bug-detection time. *)

val pp : Format.formatter -> t -> unit
