(** The concrete checkers evaluated in the paper.

    - {!use_after_free}: value freed by [free(p)] later dereferenced
      (load/store base).  The paper's headline checker (§5.1).
    - {!double_free}: a freed value reaches another [free].
    - {!path_traversal}: tainted input ([fgetc]/[input]) reaches a file
      name ([fopen]) — CWE-23 (§4.1).
    - {!data_transmission}: sensitive data ([getpass]) reaches the network
      ([sendto]) — CWE-402 (§4.1).
    - {!null_deref}: a null constant flows to a dereference — an
      extension checker demonstrating how cheaply new source-sink
      properties slot into the framework ("we have been continuously
      adding checkers", §4.1).  It is fully path sensitive: a dereference
      guarded by [p != null] is proven safe by the solver.

    Sanitisation is deliberately not modelled in the taint checkers,
    matching §4.1/§5.3. *)

val use_after_free : Checker_spec.t
val double_free : Checker_spec.t
val path_traversal : Checker_spec.t
val data_transmission : Checker_spec.t
val null_deref : Checker_spec.t

val all : Checker_spec.t list
val by_name : string -> Checker_spec.t option

val class_mates : Checker_spec.t -> Checker_spec.t list
(** The other built-in checkers of [spec]'s value-flow class
    ({!Pinpoint_summary.Vf.same_class}): their VF summaries come out of
    the same reachability searches (DESIGN.md §4, Summaries). *)
