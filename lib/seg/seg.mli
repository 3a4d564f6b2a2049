(** The Symbolic Expression Graph (paper §3.2, Definition 3.2).

    One SEG per function.  Vertices are SSA variables [v@s] (a variable is
    defined once, so its definition vertex is written [v]); operator
    vertices are realised as hash-consed {!Pinpoint_smt.Expr} nodes, which
    gives the same maximal sharing as Definition 3.2's O set.

    The graph exposes:

    - {e value-flow edges} between variables, labelled with the condition
      under which the flow happens.  [Copy] edges preserve the value
      (assignment, φ selection, store-to-load through memory — the sparse
      edges a use-after-free path follows); [Operand] edges feed operators
      (taint checkers follow both kinds);
    - {e uses}: the [v@s] vertices where a value is consumed — dereference
      bases, call arguments ([free(c)] is the canonical source), return
      operands;
    - the {e DD} and {e CD} constraint queries of §3.2.2 (Examples
      3.7/3.8), each returning the constraint together with the sets of
      function parameters [P] and return-value receivers [R] whose
      constraints are "lost" locally (the [PC(·)^P_R] notation of
      §3.3.1). *)

type ekind = Copy | Operand

type edge = {
  dst : Pinpoint_ir.Var.t;
  cond : Pinpoint_smt.Expr.t;
  kind : ekind;
}

type ukind =
  | Deref of int  (** dereferenced (as a load/store base) with depth k *)
  | Call_arg of { callee : string; arg_index : int }
  | Ret_op of int  (** operand position in the (extended) return *)

type use = { uvar : Pinpoint_ir.Var.t; sid : int; ukind : ukind }

(** A receiver whose constraint must be recovered from the callee's RV
    summary (the bold part of Equation 2). *)
type recv_dep = {
  rvar : Pinpoint_ir.Var.t;
  call_sid : int;
  callee : string;
  ret_index : int;  (** position in the callee's extended return *)
  args : Pinpoint_ir.Stmt.operand list;  (** actuals at that call site *)
}

(** A constraint with its lost dependences: [PC(·)^P_R] / [DD(·)^P_R]. *)
type cres = {
  f : Pinpoint_smt.Expr.t;
  params : Pinpoint_ir.Var.Set.t;  (** the P set: interface variables *)
  recvs : recv_dep list;           (** the R set *)
}

type t

val build : Pinpoint_ir.Func.t -> Pinpoint_pta.Pta.t -> t
(** Build the SEG of a transformed, SSA, gated function. *)

val func : t -> Pinpoint_ir.Func.t
val pta : t -> Pinpoint_pta.Pta.t

val truncate : t -> keep:float -> t
(** Deterministically keep only a [keep] fraction (clamped to [0,1]) of
    each vertex's out-edges and of the use list — the fault injector's
    "truncated SEG" class.  Removing edges only removes candidate paths,
    so truncation degrades recall, never soundness of the remaining
    reports. *)

val succs : t -> Pinpoint_ir.Var.t -> edge list
val preds : t -> Pinpoint_ir.Var.t -> edge list

val uses : t -> use list
val uses_of : t -> Pinpoint_ir.Var.t -> use list

val def_of : t -> Pinpoint_ir.Var.t -> Pinpoint_ir.Stmt.t option

val dd : t -> Pinpoint_ir.Var.t -> cres
(** Data-dependence constraint of a variable (Example 3.7), memoized. *)

val dd_expr : t -> Pinpoint_smt.Expr.t -> cres
(** DD-closure over all variables occurring in a formula. *)

val cd_stmt : t -> int -> cres
(** Control-dependence constraint of a statement (Example 3.8): the
    condition under which the statement is reachable. *)

val cd_stmt_split : t -> int -> Pinpoint_smt.Expr.t * cres
(** Like {!cd_stmt} but keeps the branch literals apart from the
    data-dependence facts: returns [(lits, facts)] where [lits] is the
    conjunction of branch-variable literals and [facts] their (always
    true) defining constraints.  Clients that need to reason about the
    {e negation} of reachability (e.g. the leak checker's "no free
    covers this path") must negate [lits] only and keep [facts]
    asserted. *)

val var_of_symbol : t -> Pinpoint_smt.Symbol.t -> Pinpoint_ir.Var.t option

val alloc_address : string -> int -> int
(** Distinct non-zero abstract address per allocation site
    (function name, sid); lets the solver prove [malloc() != null] and
    distinguish allocations.  Thread-safe (the table is shared across
    functions); numbers are first-come, so parallel drivers should call
    {!reserve_addresses} first to pin them in program order. *)

val reserve_addresses : Pinpoint_ir.Func.t list -> unit
(** Assign an abstract address to every allocation site of the given
    functions, in program order.  Called once (sequentially) before segs
    are built in parallel so addresses — which appear inside formulas —
    are identical under any schedule and job count. *)

val n_vertices : t -> int
val n_edges : t -> int
(** Size metrics reported by the Figure 7/8 benchmarks (data +
    control-dependence edges). *)

val dot : t -> string
