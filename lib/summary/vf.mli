(** Value-flow (VF) summaries (paper §3.3.2).

    Four kinds of reachability summaries per function, relating a
    checker's bug-specific "source" and "sink" vertices to the function's
    interface values:

    - VF1: a parameter flows to a return position (should the search
      continue from the receiver after a call?);
    - VF2: a source flows to a return position (a receiver becomes buggy
      after the call);
    - VF3: a parameter flows to a source (an actual becomes buggy after
      the call — e.g. the callee frees it);
    - VF4: a parameter flows to a sink (a bug may complete inside the
      callee).

    Summaries are reachability-only; the precise conditions are recovered
    on demand during path-condition computation (§3.3.1), which is what
    keeps summary generation cheap.  Generated bottom-up; recursion is cut
    once.  Parameter and return indices refer to the {e extended}
    (post-transformation) interface, so value flows through memory
    side-effects ride the connector variables. *)

type spec = {
  follow_operands : bool;
      (** follow operator edges too (taint) or only value-preserving
          copies (use-after-free) *)
  source_vars : Pinpoint_seg.Seg.t -> (Pinpoint_ir.Var.t * int) list;
      (** variables that carry a source value from statement [sid] on *)
  is_sink_use : Pinpoint_seg.Seg.t -> Pinpoint_seg.Seg.use -> bool;
}

type fsum = {
  vf1 : (int * int) list;  (** (param index, ret position), 1-based params *)
  vf2 : int list;          (** ret positions carrying a source value *)
  vf3 : int list;          (** params that reach a source *)
  vf4 : int list;          (** params that reach a sink (transitively) *)
}

type t

val same_class : spec -> spec -> bool
(** Whether two specs belong to one {e value-flow class}: they agree on
    [follow_operands], which is all that VF1 and the per-parameter
    reachability depend on. *)

val generate_all :
  Pinpoint_ir.Prog.t ->
  (string -> Pinpoint_seg.Seg.t option) ->
  spec list ->
  t list
(** One table per spec, in the given order, from a single bottom-up walk
    of the call graph.  Specs of one value-flow class share the
    per-parameter searches and VF1; only VF2–VF4 are derived per spec.
    Each table equals what a separate one-spec pass would produce. *)

val generate :
  Pinpoint_ir.Prog.t -> (string -> Pinpoint_seg.Seg.t option) -> spec -> t
(** [generate_all] for one spec. *)

val empty : unit -> t
(** A summary table with no entries.  Used as the fallback when summary
    generation crashes: with no VF1/VF4 facts the engine must disable VF
    pruning (descend everywhere) to stay soundy. *)

val update_all :
  Pinpoint_ir.Prog.t ->
  (string -> Pinpoint_seg.Seg.t option) ->
  (spec * t) list ->
  dirty:(string -> bool) ->
  unit
(** Incremental regeneration for the analysis server (DESIGN.md §4.13):
    drop the [dirty] functions' entries from every table and recompute
    them in one bottom-up walk against the retained clean entries, sharing
    searches per value-flow class as {!generate_all} does.  [dirty] must
    be closed under "is a transitive caller of a dirty function"; each
    table then equals a from-scratch {!generate} over the same program.
    Only the cone's SCCs are walked ({!Pinpoint_ir.Prog.cone_sccs}). *)

val find : t -> string -> fsum option

val fold : t -> init:'a -> f:('a -> string -> fsum -> 'a) -> 'a
(** Iterate all entries. *)

val add : t -> string -> fsum -> unit
(** Insert one entry. *)

val pp : Format.formatter -> t -> unit
