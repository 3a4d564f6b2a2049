(** Time and allocation measurement used by the benchmark harness.

    The paper measures wall-clock hours and resident-set gigabytes; our
    substitute (documented in DESIGN.md §1) is wall-clock seconds via
    [Unix.gettimeofday] and allocated bytes via [Gc.allocated_bytes] deltas.
    Relative ordering and growth shape are what the experiments compare. *)

type measurement = {
  wall_s : float;      (** Elapsed monotonic-clock seconds. *)
  alloc_bytes : float; (** Bytes allocated on the OCaml heap during the run. *)
  major_words : float;
      (** Major-heap words allocated directly on the major heap (coarse
          RSS proxy for big long-lived structures). *)
  promoted_words : float;
      (** Minor-heap words that survived a minor GC and were promoted to
          the major heap — the part of [alloc_bytes] that actually became
          resident, which [major_words] alone misses. *)
}

val zero : measurement

val add : measurement -> measurement -> measurement
(** Fieldwise sum, for phases measured in several pieces. *)

val measure : ?extra_alloc:(unit -> float) -> (unit -> 'a) -> 'a * measurement
(** Run the thunk and capture elapsed time and allocation.  Time comes
    from {!now_mono}, so it never goes backwards.  [Gc.allocated_bytes]
    is domain-local; when the thunk fans work out to other domains, pass
    [extra_alloc] returning their cumulative allocated bytes (e.g.
    {e Pool.allocated_bytes}) and its delta is added to [alloc_bytes]. *)

val with_timeout : float -> (unit -> 'a) -> 'a option
(** [with_timeout budget f] runs [f]; returns [None] if a cooperative
    timeout was signalled via {!Timeout} *escaping* from [f].  The analyses
    poll {!check} themselves; this is cooperative, not preemptive. *)

exception Timeout

type deadline

val deadline_after : float -> deadline
(** A deadline [s] seconds from now.  Non-positive means "no deadline". *)

val no_deadline : deadline

val immediate : deadline
(** A deadline that has already expired — mainly for tests of the
    degradation paths. *)

val min_deadline : deadline -> deadline -> deadline
(** The earlier of two deadlines. *)

val check : deadline -> unit
(** Raise {!Timeout} if the deadline has passed. *)

val expired : deadline -> bool

val wait_until : deadline -> unit
(** Sleep-poll until the deadline expires; returns immediately when there
    is no deadline.  Used by the fault injector's "hang" class. *)

val now : unit -> float
(** [Unix.gettimeofday], exposed for elapsed-time bookkeeping.  Deadlines
    stay on the wall clock (they are compared against [now ()]). *)

val now_mono : unit -> float
(** CLOCK_MONOTONIC seconds (arbitrary epoch).  Allocation-free on the
    native path; use for span timestamps and durations, never for
    anything compared against wall-clock time. *)

val peak_rss_kb : unit -> int
(** Peak resident set size of this process in kilobytes (getrusage
    [ru_maxrss]).  A monotone high watermark — useful for end-of-run
    memory accounting and RSS-cap enforcement, not per-phase deltas. *)

val pp_bytes : Format.formatter -> float -> unit
(** Human-readable byte counts ("1.5MB"). *)

val pp_duration : Format.formatter -> float -> unit
(** Human-readable durations ("1.2s", "3.4ms"). *)
