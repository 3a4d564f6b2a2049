(** The pinpoint analysis server (DESIGN.md §4.13).

    A persistent process holding a resident {!Incr.state} and answering
    newline-delimited JSON requests over stdin/stdout or a Unix-domain
    socket.  Request/response schema: README "Server mode".

    Robustness: per-request exception barriers, per-request deadlines
    feeding the solver degradation ladder, queue-depth and RSS-watermark
    load shedding (explicit "overloaded" responses), and crash-safe epoch
    snapshots + journal for warm restart. *)

type config = {
  queue_depth : int;  (** requests queued before the reader sheds *)
  max_rss_mb : float;  (** RSS watermark for checks; 0 = unlimited *)
  snapshot_dir : string option;  (** where snapshot.json / journal.jsonl live *)
  snapshot_every : int;  (** updates between full snapshots *)
  incident_cap : int;  (** retained-incident cap of the shared log *)
  qcache_cap : int option;  (** SMT verdict-cache entry cap *)
  default_deadline_s : float;  (** per-checker deadline unless overridden *)
  solver_budget_s : float;
  solver_conflicts : int;
  pool : Pinpoint_par.Pool.t option;
  prom_file : string option;
      (** Prometheus text exposition written here at request-processing
          time, at most every [prom_every_s] seconds *)
  prom_every_s : float;  (** min seconds between prom-file refreshes *)
  flight_file : string;
      (** flight-recorder dump target for crashes, RSS sheds and the
          [dump] op's default (default ["flight.json"]) *)
  flight : bool;
      (** enable the always-on flight recorder at {!create}; independent
          of the obs level (default [true]) *)
  window_width_s : float;  (** rolling metrics window: slot width *)
  window_slots : int;  (** … and slot count (default 18 × 10 s) *)
}

val default_config : config

type t

val create : ?config:config -> unit -> t
(** Also applies [qcache_cap] to the process-wide verdict cache. *)

val load_files : t -> (string * string) list -> unit
(** Load the initial subject (e.g. from [pinpoint serve FILE...]) and
    write the first epoch snapshot.  Raises front-end errors on bad
    input. *)

val recover : t -> bool
(** Warm restart: load the epoch snapshot from [snapshot_dir] and replay
    whole journal lines (a torn tail line, or one whose files fail to
    parse or lower, ends the replay).  Returns [false] when there is
    nothing (or nothing readable, parsable and lowerable) to recover.
    Never raises a front-end error. *)

val handle_line : t -> string -> string * [ `Continue | `Stop ]
(** One request line -> one response line.  Never raises: every failure
    mode is an ["ok": false] response.  [`Stop] is returned for the
    [shutdown] op.  Exposed so tests and custom transports can drive the
    server without sockets.

    Each request is assigned an id (["r000001"], …) installed as the
    ambient {!Pinpoint_obs.Obs} request context for the whole dispatch
    and stamped into the response (["request"] field); the id sequence
    depends only on request order, so responses are byte-identical at
    every obs level.  Ops: [check] (default), [status], [metrics]
    (live rolling-window + lifetime snapshot; ["format":"prometheus"]
    for text exposition), [dump] (flight-recorder dump, or
    ["what":"trace"] + ["request_id"] for a per-request Chrome trace
    slice), [shutdown]. *)

val rss_mb : unit -> float
(** Resident set size via /proc/self/statm (major-heap size as the
    fallback on non-procfs systems). *)

val serve_channels : t -> in_channel -> out_channel -> [ `Stop | `Eof ]
(** Serve one request stream: a reader domain feeds a bounded queue
    (overflowing lines get an ["overloaded"] response and are otherwise
    dropped), the calling domain answers the queued lines in order.
    Returns [`Eof] at end of input, or [`Stop] once a [shutdown] is
    acknowledged; the reader stops reading at a queued [shutdown], so the
    return does not wait for the peer to close its end. *)

val serve_stdio : t -> unit
(** {!serve_channels} over stdin / stdout. *)

val serve_socket : t -> string -> unit
(** Bind a Unix-domain socket at the given path and serve one connection
    at a time until a [shutdown] request; the socket file is removed on
    exit.  Within a connection a reader domain feeds the bounded request
    queue, so overload shedding works mid-stream. *)
