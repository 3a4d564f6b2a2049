(* The pinpoint analysis server (DESIGN.md §4.13).

   A long-lived process holding one resident subject (Incr.state) and
   answering newline-delimited JSON requests over stdin/stdout or a Unix
   socket.  Robustness model:

   - every request runs inside an exception barrier: a crash (organic or
     injected) produces an error response and leaves the resident state
     for the next request;
   - a per-request deadline is threaded into the engine config, where it
     feeds the solver degradation ladder — a blown deadline degrades
     verdicts, it never kills the server;
   - admission control: the transport reader sheds requests beyond the
     queue depth, and a check is refused (after one forced major GC) when
     the resident set exceeds the RSS watermark — both as explicit
     "overloaded" responses, so clients can back off;
   - crash-safe warm restart: file contents are snapshotted to disk
     (write-to-temp + rename) every N updates, with the in-between
     updates appended to a journal; recovery loads the snapshot and
     replays whole journal lines, so a torn tail line is ignored. *)

module Resilience = Pinpoint_util.Resilience
module Metrics = Pinpoint_util.Metrics
module Obs = Pinpoint_obs.Obs
module Window = Pinpoint_obs.Window
module Flight = Pinpoint_obs.Flight
module Export = Pinpoint_obs.Export

type config = {
  queue_depth : int;        (** max queued requests before shedding *)
  max_rss_mb : float;       (** RSS watermark; 0 = unlimited *)
  snapshot_dir : string option;
  snapshot_every : int;     (** updates between epoch snapshots *)
  incident_cap : int;       (** retained-incident cap for the shared log *)
  qcache_cap : int option;  (** SMT verdict-cache entry cap *)
  default_deadline_s : float;  (** per-checker deadline when not overridden *)
  solver_budget_s : float;
  solver_conflicts : int;
  pool : Pinpoint_par.Pool.t option;
  prom_file : string option;
      (** Prometheus text exposition refreshed here on the request-time
          timer (at most every [prom_every_s]) *)
  prom_every_s : float;
  flight_file : string;
      (** where crash / RSS-shed flight dumps land (and the default for
          the [dump] op) *)
  flight : bool;  (** enable the flight recorder at [create] *)
  window_width_s : float;  (** rolling-window slot width *)
  window_slots : int;  (** rolling-window slot count *)
}

let default_config =
  {
    queue_depth = 16;
    max_rss_mb = 0.0;
    snapshot_dir = None;
    snapshot_every = 32;
    incident_cap = 1024;
    qcache_cap = None;
    default_deadline_s = infinity;
    solver_budget_s = infinity;
    solver_conflicts = Pinpoint_smt.Sat.default_budget;
    pool = None;
    prom_file = None;
    prom_every_s = 5.0;
    flight_file = "flight.json";
    flight = true;
    window_width_s = 10.0;
    window_slots = 18;
  }

type rungs = {
  mutable full : int;
  mutable halved : int;
  mutable linear : int;
  mutable gave_up : int;
  mutable cached : int;
}

type ops = {
  mutable op_check : int;
  mutable op_status : int;
  mutable op_metrics : int;
  mutable op_dump : int;
  mutable op_shutdown : int;
  mutable op_unknown : int;
}

type t = {
  cfg : config;
  mutable st : Incr.state option;
  mutable epoch_base : int;  (** epoch of the snapshot we recovered from *)
  started_at : float;
  rungs : rungs;  (** accumulated over every check served *)
  ops : ops;  (** per-op request counters, independent of the obs level *)
  window : Window.t;  (** rolling metrics window, ticked per request *)
  mutable last_prom : float;  (** monotonic time of the last prom-file write *)
  mutable last_snapshot_epoch : int;  (** abs epoch at last snapshot; -1 never *)
  mutable n_requests : int;
  mutable n_checks : int;
  mutable n_errors : int;
  mutable n_overloaded : int;  (** shed at the queue *)
  mutable n_shed_rss : int;    (** refused at the RSS watermark *)
  mutable journal : out_channel option;
}

(* ---------- RSS ---------- *)

let rss_mb () =
  match open_in "/proc/self/statm" with
  | exception Sys_error _ ->
    (* Non-procfs fallback: major-heap size. *)
    float_of_int (Gc.quick_stat ()).Gc.heap_words
    *. float_of_int (Sys.word_size / 8)
    /. 1048576.0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match String.split_on_char ' ' (input_line ic) with
        | _ :: resident :: _ ->
          (* statm is in pages; 4 KiB covers every platform we run on. *)
          float_of_string resident *. 4096.0 /. 1048576.0
        | _ -> 0.0)

(* ---------- snapshots ---------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

let snapshot_path dir = Filename.concat dir "snapshot.json"
let journal_path dir = Filename.concat dir "journal.jsonl"

let files_json files =
  Json.List
    (List.map
       (fun (n, c) ->
         Json.Obj [ ("name", Json.String n); ("contents", Json.String c) ])
       files)

let files_of_json j =
  match Json.list_opt j with
  | None -> None
  | Some entries ->
    let parse entry =
      match
        ( Option.bind (Json.member "name" entry) Json.string_opt,
          Option.bind (Json.member "contents" entry) Json.string_opt )
      with
      | Some n, Some c -> Some (n, c)
      | _ -> None
    in
    let files = List.filter_map parse entries in
    if List.length files = List.length entries then Some files else None

let abs_epoch t =
  match t.st with None -> 0 | Some st -> t.epoch_base + Incr.epoch st

(* Full-state snapshot: write-to-temp + rename is atomic on POSIX, so a
   crash mid-write leaves the previous snapshot intact.  The journal is
   truncated afterwards; losing the truncation to a crash only means some
   journal lines get replayed onto a snapshot that already contains them
   — replay of an already-applied file set is a no-op update. *)
let write_snapshot t =
  match (t.cfg.snapshot_dir, t.st) with
  | None, _ | _, None -> ()
  | Some dir, Some st ->
    mkdir_p dir;
    let tmp = snapshot_path dir ^ ".tmp" in
    let oc = open_out tmp in
    output_string oc
      (Json.to_string
         (Json.Obj
            [
              ("epoch", Json.Int (abs_epoch t));
              ("files", files_json (Incr.files st));
            ]));
    output_char oc '\n';
    close_out oc;
    Sys.rename tmp (snapshot_path dir);
    t.last_snapshot_epoch <- abs_epoch t;
    Option.iter close_out_noerr t.journal;
    t.journal <- Some (open_out (journal_path dir))

let journal_update t changed =
  match t.cfg.snapshot_dir with
  | None -> ()
  | Some dir ->
    let oc =
      match t.journal with
      | Some oc -> oc
      | None ->
        mkdir_p dir;
        let oc =
          open_out_gen [ Open_append; Open_creat ] 0o644 (journal_path dir)
        in
        t.journal <- Some oc;
        oc
    in
    output_string oc
      (Json.to_string
         (Json.Obj
            [ ("epoch", Json.Int (abs_epoch t)); ("files", files_json changed) ]));
    output_char oc '\n';
    flush oc

let create ?(config = default_config) () =
  Option.iter (fun c -> Pinpoint_smt.Qcache.set_capacity (Some c)) config.qcache_cap;
  if config.flight then Flight.set_enabled true;
  {
    cfg = config;
    st = None;
    epoch_base = 0;
    started_at = Metrics.now ();
    rungs = { full = 0; halved = 0; linear = 0; gave_up = 0; cached = 0 };
    ops =
      {
        op_check = 0;
        op_status = 0;
        op_metrics = 0;
        op_dump = 0;
        op_shutdown = 0;
        op_unknown = 0;
      };
    window =
      Window.create ~slots:config.window_slots ~width_s:config.window_width_s
        ~now:(Metrics.now_mono ()) ();
    last_prom = neg_infinity;
    last_snapshot_epoch = -1;
    n_requests = 0;
    n_checks = 0;
    n_errors = 0;
    n_overloaded = 0;
    n_shed_rss = 0;
    journal = None;
  }

let load_files t files =
  let st =
    Incr.load ~incident_cap:t.cfg.incident_cap ?pool:t.cfg.pool files
  in
  t.st <- Some st;
  t.epoch_base <- 0;
  write_snapshot t

(* Warm restart: snapshot + whole journal lines.  A torn final line
   (crash mid-append) fails to parse and ends the replay — everything
   before it is intact by construction. *)
let recover t =
  match t.cfg.snapshot_dir with
  | None -> false
  | Some dir when not (Sys.file_exists (snapshot_path dir)) -> false
  | Some dir -> (
    let read_all path =
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Json.parse (String.trim (read_all (snapshot_path dir))) with
    | Error _ -> false
    | Ok snap -> (
      match Option.bind (Json.member "files" snap) files_of_json with
      | None -> false
      | Some files ->
        let epoch =
          Option.value ~default:0
            (Option.bind (Json.member "epoch" snap) Json.int_opt)
        in
        let st =
          Incr.load ~incident_cap:t.cfg.incident_cap ?pool:t.cfg.pool files
        in
        t.st <- Some st;
        t.epoch_base <- epoch;
        if Sys.file_exists (journal_path dir) then begin
          let ic = open_in (journal_path dir) in
          (try
             while true do
               let line = input_line ic in
               if String.trim line <> "" then
                 match Json.parse line with
                 | Error _ -> raise Exit
                 | Ok j -> (
                   match Option.bind (Json.member "files" j) files_of_json with
                   | None -> raise Exit
                   | Some changed -> ignore (Incr.update st changed))
             done
           with End_of_file | Exit -> ());
          close_in_noerr ic
        end;
        true))

(* ---------- responses ---------- *)

let error_response ?id ?(extra = []) msg =
  let base = [ ("ok", Json.Bool false); ("error", Json.String msg) ] in
  let base = match id with Some id -> ("id", id) :: base | None -> base in
  Json.to_string (Json.Obj (base @ extra))

let overloaded_response ?id t =
  t.n_overloaded <- t.n_overloaded + 1;
  error_response ?id
    ~extra:[ ("overloaded", Json.Bool true) ]
    "overloaded: request queue full"

let report_json (r : Pinpoint.Report.t) =
  let loc (l : Pinpoint_ir.Stmt.loc) =
    Json.Obj
      [
        ("file", Json.String l.Pinpoint_ir.Stmt.file);
        ("line", Json.Int l.Pinpoint_ir.Stmt.line);
      ]
  in
  Json.Obj
    [
      ("render", Json.String (Pinpoint.Report.one_line r));
      ("checker", Json.String r.Pinpoint.Report.checker);
      ("source_fn", Json.String r.Pinpoint.Report.source_fn);
      ("source", loc r.Pinpoint.Report.source_loc);
      ("sink_fn", Json.String r.Pinpoint.Report.sink_fn);
      ("sink", loc r.Pinpoint.Report.sink_loc);
      ( "verdict",
        Json.String
          (match r.Pinpoint.Report.verdict with
          | Pinpoint.Report.Feasible -> "feasible"
          | Pinpoint.Report.Feasible_unknown -> "feasible?"
          | Pinpoint.Report.Infeasible -> "infeasible") );
      ("degraded", Json.Bool (Pinpoint.Report.is_degraded r));
    ]

let stats_json (s : Pinpoint.Engine.stats) =
  Json.Obj
    [
      ("sources", Json.Int s.Pinpoint.Engine.n_sources);
      ("candidates", Json.Int s.Pinpoint.Engine.n_candidates);
      ("solver_calls", Json.Int s.Pinpoint.Engine.n_solver_calls);
      ("rung_full", Json.Int s.Pinpoint.Engine.n_rung_full);
      ("rung_halved", Json.Int s.Pinpoint.Engine.n_rung_halved);
      ("rung_linear", Json.Int s.Pinpoint.Engine.n_rung_linear);
      ("rung_gave_up", Json.Int s.Pinpoint.Engine.n_rung_gave_up);
      ("rung_cached", Json.Int s.Pinpoint.Engine.n_rung_cached);
      ("incidents", Json.Int s.Pinpoint.Engine.n_incidents);
    ]

let accumulate_rungs t (s : Pinpoint.Engine.stats) =
  t.rungs.full <- t.rungs.full + s.Pinpoint.Engine.n_rung_full;
  t.rungs.halved <- t.rungs.halved + s.Pinpoint.Engine.n_rung_halved;
  t.rungs.linear <- t.rungs.linear + s.Pinpoint.Engine.n_rung_linear;
  t.rungs.gave_up <- t.rungs.gave_up + s.Pinpoint.Engine.n_rung_gave_up;
  t.rungs.cached <- t.rungs.cached + s.Pinpoint.Engine.n_rung_cached;
  (* Mirror into the registry so the rolling window sees per-interval
     rung rates, not just lifetime totals. *)
  if Obs.metrics_on () then begin
    Obs.add (Obs.counter "server.rungs.full") s.Pinpoint.Engine.n_rung_full;
    Obs.add (Obs.counter "server.rungs.halved") s.Pinpoint.Engine.n_rung_halved;
    Obs.add (Obs.counter "server.rungs.linear") s.Pinpoint.Engine.n_rung_linear;
    Obs.add (Obs.counter "server.rungs.gave_up")
      s.Pinpoint.Engine.n_rung_gave_up;
    Obs.add (Obs.counter "server.rungs.cached") s.Pinpoint.Engine.n_rung_cached
  end

(* ---------- the status view ---------- *)

let solver_hit_rate t =
  let total =
    t.rungs.full + t.rungs.halved + t.rungs.linear + t.rungs.gave_up
    + t.rungs.cached
  in
  if total = 0 then 0.0 else float_of_int t.rungs.cached /. float_of_int total

(* Force-publish every registry contributor so the gauges and the
   par.* counters a status/metrics reader sees are fresh at read time
   rather than stale-from-last-export.  The pool publishes deltas, so
   repeated refreshes keep the registry equal to lifetime totals. *)
let refresh_obs t =
  if Obs.metrics_on () then begin
    Option.iter Pinpoint_par.Pool.publish_obs t.cfg.pool;
    Obs.set_gauge (Obs.gauge "server.uptime_s") (Metrics.now () -. t.started_at);
    Obs.set_gauge (Obs.gauge "server.rss_mb") (rss_mb ());
    Obs.set_gauge (Obs.gauge "server.requests") (float_of_int t.n_requests);
    Obs.set_gauge (Obs.gauge "server.overloaded")
      (float_of_int (t.n_overloaded + t.n_shed_rss));
    Obs.set_gauge (Obs.gauge "server.qcache_hit_rate") (solver_hit_rate t)
  end

let ops_json t =
  Json.Obj
    [
      ("check", Json.Int t.ops.op_check);
      ("status", Json.Int t.ops.op_status);
      ("metrics", Json.Int t.ops.op_metrics);
      ("dump", Json.Int t.ops.op_dump);
      ("shutdown", Json.Int t.ops.op_shutdown);
      ("unknown", Json.Int t.ops.op_unknown);
    ]

let window_info_json t =
  Json.Obj
    [
      ("width_s", Json.Float (Window.width_s t.window));
      ("slots", Json.Int (Window.slots t.window));
      ("filled", Json.Int (Window.filled t.window));
      ("rolls", Json.Int (Window.rolls t.window));
    ]

let status_json t =
  refresh_obs t;
  let qstats = Pinpoint_smt.Qcache.stats () in
  let hit_rate = solver_hit_rate t in
  let incidents =
    match t.st with
    | None -> []
    | Some st ->
      let log = Incr.resilience st in
      [
        ( "incidents",
          Json.Obj
            [
              ("total", Json.Int (Resilience.count log));
              ("retained", Json.Int (Resilience.retained log));
              ("dropped", Json.Int (Resilience.dropped log));
              ( "by_phase",
                Json.Obj
                  (List.map
                     (fun (ph, n) -> (Resilience.phase_name ph, Json.Int n))
                     (Resilience.by_phase log)) );
            ] );
      ]
  in
  let state =
    match t.st with
    | None -> [ ("loaded", Json.Bool false) ]
    | Some st ->
      [
        ("loaded", Json.Bool true);
        ("epoch", Json.Int (abs_epoch t));
        ("files", Json.Int (List.length (Incr.files st)));
        ("functions", Json.Int (Incr.n_functions st));
      ]
  in
  Json.Obj
    ([
       ("ok", Json.Bool true);
       ("uptime_s", Json.Float (Metrics.now () -. t.started_at));
       ("requests", Json.Int t.n_requests);
       ("ops", ops_json t);
       ("last_snapshot_epoch", Json.Int t.last_snapshot_epoch);
       ("window", window_info_json t);
       ("flight", Json.Bool (Flight.enabled ()));
       ("checks", Json.Int t.n_checks);
       ("errors", Json.Int t.n_errors);
       ("overloaded", Json.Int t.n_overloaded);
       ("shed_rss", Json.Int t.n_shed_rss);
       ("rss_mb", Json.Float (rss_mb ()));
       ( "qcache",
         Json.Obj
           [
             ("entries", Json.Int qstats.Pinpoint_smt.Qcache.entries);
             ( "capacity",
               match qstats.Pinpoint_smt.Qcache.cap with
               | Some c -> Json.Int c
               | None -> Json.Null );
             ("evictions", Json.Int qstats.Pinpoint_smt.Qcache.evictions);
             ("inserts", Json.Int qstats.Pinpoint_smt.Qcache.inserts);
             ("hit_rate", Json.Float hit_rate);
           ] );
       ( "rungs",
         Json.Obj
           [
             ("full", Json.Int t.rungs.full);
             ("halved", Json.Int t.rungs.halved);
             ("linear", Json.Int t.rungs.linear);
             ("gave_up", Json.Int t.rungs.gave_up);
             ("cached", Json.Int t.rungs.cached);
           ] );
     ]
    @ state @ incidents)

(* ---------- the metrics view ---------- *)

let level_name () =
  match Obs.level () with
  | Obs.Off -> "off"
  | Obs.Metrics_only -> "metrics"
  | Obs.Trace -> "trace"

(* Registry snapshot -> response JSON.  Histograms are summarised to
   (n, sum, p50/p95/p99) — the full bucket vectors stay in the
   [--metrics-json] batch export; a live poller wants the quantiles. *)
let snapshot_fields (snap : Obs.Snapshot.t) =
  let counters, gauges, histograms =
    List.fold_left
      (fun (cs, gs, hs) (name, v) ->
        match (v : Obs.Snapshot.value) with
        | Obs.Snapshot.Counter n -> ((name, Json.Int n) :: cs, gs, hs)
        | Obs.Snapshot.Gauge g -> (cs, (name, Json.Float g) :: gs, hs)
        | Obs.Snapshot.Histogram h ->
          let q p =
            Json.Float
              (Option.value ~default:0.0 (Obs.Snapshot.quantile v p))
          in
          ( cs,
            gs,
            ( name,
              Json.Obj
                [
                  ("n", Json.Int h.n);
                  ("sum", Json.Float h.sum);
                  ("p50", q 0.50);
                  ("p95", q 0.95);
                  ("p99", q 0.99);
                ] )
            :: hs ))
      ([], [], []) snap
  in
  [
    ("counters", Json.Obj (List.rev counters));
    ("gauges", Json.Obj (List.rev gauges));
    ("histograms", Json.Obj (List.rev histograms));
  ]

let metrics_response t ?id req =
  refresh_obs t;
  let base = match id with Some id -> [ ("id", id) ] | None -> [] in
  let format =
    Option.value ~default:"json"
      (Option.bind (Json.member "format" req) Json.string_opt)
  in
  match format with
  | "prometheus" ->
    Json.to_string
      (Json.Obj
         (base
         @ [
             ("ok", Json.Bool true);
             ("format", Json.String "prometheus");
             ("prometheus", Json.String (Export.prometheus ()));
           ]))
  | _ ->
    let current = Obs.snapshot () in
    let windowed = Window.view t.window ~current in
    let info =
      match window_info_json t with Json.Obj kvs -> kvs | _ -> []
    in
    Json.to_string
      (Json.Obj
         (base
         @ [
             ("ok", Json.Bool true);
             ("level", Json.String (level_name ()));
             ("window", Json.Obj (info @ snapshot_fields windowed));
             ("totals", Json.Obj (snapshot_fields current));
             ("ops", ops_json t);
           ]))

(* ---------- the dump view (flight recorder / per-request traces) ---------- *)

let dump_response t ?id req =
  let base = match id with Some id -> [ ("id", id) ] | None -> [] in
  let what =
    Option.value ~default:"flight"
      (Option.bind (Json.member "what" req) Json.string_opt)
  in
  match what with
  | "trace" ->
    (* Per-request Chrome trace slice: every span recorded under the
       given request id, loadable in Perfetto as-is.  Needs --trace. *)
    let request_id =
      Option.bind (Json.member "request_id" req) Json.string_opt
    in
    Json.to_string
      (Json.Obj
         (base
         @ [
             ("ok", Json.Bool true);
             ("what", Json.String "trace");
             ("level", Json.String (level_name ()));
             ("trace", Json.String (Export.trace_json ?request_id ()));
           ]))
  | "flight" ->
    let path =
      Option.value ~default:t.cfg.flight_file
        (Option.bind (Json.member "path" req) Json.string_opt)
    in
    let n_events = List.length (Flight.events ()) in
    let written = Flight.dump ~reason:"dump op" path in
    let inline =
      match Json.member "inline" req with
      | Some (Json.Bool true) ->
        [ ("flight", Json.String (Flight.to_json ~reason:"dump op" ())) ]
      | _ -> []
    in
    Json.to_string
      (Json.Obj
         (base
         @ [
             ("ok", Json.Bool true);
             ("what", Json.String "flight");
             ("enabled", Json.Bool (Flight.enabled ()));
             ("path", Json.String path);
             ("written", Json.Bool written);
             ("events", Json.Int n_events);
           ]
         @ inline))
  | what -> error_response ?id (Printf.sprintf "unknown dump target %S" what)

(* ---------- request handling ---------- *)

let engine_config t req =
  let num key default =
    Option.value ~default
      (Option.bind (Json.member key req) Json.number_opt)
  in
  let deadline_s = num "deadline_s" t.cfg.default_deadline_s in
  let solver_budget_s = num "solver_budget_s" t.cfg.solver_budget_s in
  let solver_conflicts =
    Option.value ~default:t.cfg.solver_conflicts
      (Option.bind (Json.member "solver_conflicts" req) Json.int_opt)
  in
  fun () ->
    (* A fresh deadline per checker, matching the batch CLI. *)
    {
      Pinpoint.Engine.default_config with
      Pinpoint.Engine.deadline = Metrics.deadline_after deadline_s;
      solver_budget_s;
      solver_conflict_budget = solver_conflicts;
    }

let checkers_of req =
  match Option.bind (Json.member "checkers" req) Json.list_opt with
  | None | Some [] -> Ok Pinpoint.Checkers.all
  | Some names ->
    let rec resolve acc = function
      | [] -> Ok (List.rev acc)
      | j :: rest -> (
        match Json.string_opt j with
        | None -> Error "checkers must be strings"
        | Some n -> (
          match Pinpoint.Checkers.by_name n with
          | Some c -> resolve (c :: acc) rest
          | None -> Error (Printf.sprintf "unknown checker %S" n)))
    in
    resolve [] names

(* Dirty-cone sizes are function counts, not latencies — own edges. *)
let cone_buckets = [| 0.; 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000. |]

let handle_check t ?id req =
  (* Seeded crash injection for the flight-recorder crash path: only
     honoured while fault injection is installed (tests, bench), so an
     ordinary client cannot trip it. *)
  if
    Resilience.Inject.enabled ()
    && Json.member "inject_crash" req = Some (Json.Bool true)
  then raise Resilience.Injected_crash;
  let incidents_before =
    match t.st with Some st -> Resilience.count (Incr.resilience st) | None -> 0
  in
  let changed =
    match Json.member "files" req with
    | None -> Some []
    | Some j -> files_of_json j
  in
  match changed with
  | None -> error_response ?id "files must be [{name, contents}]"
  | Some changed -> (
    let update_result =
      match (t.st, changed) with
      | None, [] -> Error "no subject loaded: first request must carry files"
      | None, files ->
        load_files t files;
        Ok
          {
            Incr.changed_files = List.length files;
            changed_funcs = -1;
            dirty_cone = Incr.n_functions (Option.get t.st);
            full_rebuild = true;
          }
      | Some _, [] ->
        (* Plain re-check of the resident state: not an update, so the
           epoch is untouched and no digest pass runs. *)
        Ok
          {
            Incr.changed_files = 0;
            changed_funcs = 0;
            dirty_cone = 0;
            full_rebuild = false;
          }
      | Some st, changed ->
        let stats = Incr.update st changed in
        journal_update t changed;
        if
          t.cfg.snapshot_every > 0
          && Incr.epoch st mod t.cfg.snapshot_every = 0
        then write_snapshot t;
        Ok stats
    in
    match update_result with
    | Error msg -> error_response ?id msg
    | Ok ustats -> (
      if Obs.metrics_on () then
        Obs.observe
          (Obs.histogram ~buckets:cone_buckets "server.dirty_cone")
          (float_of_int ustats.Incr.dirty_cone);
      match checkers_of req with
      | Error msg -> error_response ?id msg
      | Ok checkers ->
        let st = Option.get t.st in
        let mk_config = engine_config t req in
        let checker_results =
          List.map
            (fun (spec : Pinpoint.Checker_spec.t) ->
              t.n_checks <- t.n_checks + 1;
              let reports, stats =
                Incr.check ~config:(mk_config ()) st spec
              in
              accumulate_rungs t stats;
              let reported =
                List.filter Pinpoint.Report.is_reported reports
              in
              Json.Obj
                [
                  ("checker", Json.String spec.Pinpoint.Checker_spec.name);
                  ("reports", Json.List (List.map report_json reported));
                  ( "n_infeasible",
                    Json.Int (List.length reports - List.length reported) );
                  ("stats", stats_json stats);
                ])
            checkers
        in
        let log = Incr.resilience st in
        let base = match id with Some id -> [ ("id", id) ] | None -> [] in
        Json.to_string
          (Json.Obj
             (base
             @ [
                 ("ok", Json.Bool true);
                 ("epoch", Json.Int (abs_epoch t));
                 ( "incremental",
                   Json.Obj
                     [
                       ("changed_files", Json.Int ustats.Incr.changed_files);
                       ("changed_funcs", Json.Int ustats.Incr.changed_funcs);
                       ("dirty_cone", Json.Int ustats.Incr.dirty_cone);
                       ("full_rebuild", Json.Bool ustats.Incr.full_rebuild);
                     ] );
                 ("checkers", Json.List checker_results);
                 ( "incidents",
                   Json.Obj
                     [
                       ( "new",
                         Json.Int (Resilience.count log - incidents_before) );
                       ("total", Json.Int (Resilience.count log));
                       ("dropped", Json.Int (Resilience.dropped log));
                     ] );
               ]))))

(* Request-time maintenance: roll the metrics window and refresh the
   Prometheus file.  Both are cheap on the common path — the window tick
   is one float compare until a width elapses, and the prom write is
   rate-limited by [prom_every_s]. *)
let maintain t =
  let now = Metrics.now_mono () in
  Window.tick t.window ~now Obs.snapshot;
  match t.cfg.prom_file with
  | Some path when now -. t.last_prom >= t.cfg.prom_every_s ->
    t.last_prom <- now;
    refresh_obs t;
    (try
       let oc = open_out path in
       Fun.protect
         ~finally:(fun () -> close_out_noerr oc)
         (fun () -> output_string oc (Export.prometheus ()))
     with Sys_error _ -> ())
  | _ -> ()

let request_op req =
  Option.value ~default:"check"
    (Option.bind (Json.member "op" req) Json.string_opt)

(* The substring test spares the reader a second parse of every check
   line, which can carry whole files. *)
let is_shutdown line =
  Pinpoint_util.Pp.contains line "shutdown"
  && match Json.parse line with
     | Ok req -> request_op req = "shutdown"
     | Error _ -> false

(* One request line -> one response line, plus a continue/stop signal.
   The whole handler runs inside an exception barrier: whatever a request
   does to itself, the server (and the resident state, whose mutation
   phases have their own per-function barriers) survives to serve the
   next one.

   Every request gets a fresh id ("r000001", …) installed as the ambient
   Obs request context for the whole dispatch — spans, SMT profiler rows
   and flight events recorded anywhere below (including on pool workers,
   which re-install the submitter's id) carry it, and the response is
   stamped with it so a client can correlate.  The id sequence depends
   only on the request order, never on the obs level, so responses stay
   byte-identical across levels. *)
let handle_line t line : string * [ `Continue | `Stop ] =
  t.n_requests <- t.n_requests + 1;
  let rid = Printf.sprintf "r%06d" t.n_requests in
  let t0 = Metrics.now_mono () in
  let finish ~op (resp, action) =
    let latency_s = Metrics.now_mono () -. t0 in
    Obs.observe (Obs.histogram "server.request_latency_s") latency_s;
    if Flight.enabled () then
      Flight.record ~req:rid ~kind:"response"
        ~detail:(Printf.sprintf "%.6fs" latency_s)
        op;
    maintain t;
    let resp =
      (* Stamp the request id and latency into top-level objects. *)
      match Json.parse resp with
      | Ok (Json.Obj kvs) when not (List.mem_assoc "latency_s" kvs) ->
        Json.to_string
          (Json.Obj
             (kvs
             @ [
                 ("request", Json.String rid);
                 ("latency_s", Json.Float latency_s);
               ]))
      | _ -> resp
    in
    (resp, action)
  in
  Obs.with_request rid (fun () ->
      match Json.parse line with
      | Error msg ->
        t.n_errors <- t.n_errors + 1;
        if Flight.enabled () then
          Flight.record ~req:rid ~kind:"request" ~detail:"unparseable" "?";
        finish ~op:"?"
          (error_response (Printf.sprintf "bad request: %s" msg), `Continue)
      | Ok req ->
        let id = Json.member "id" req in
        let op = request_op req in
        if Flight.enabled () then Flight.record ~req:rid ~kind:"request" op;
        let known =
          List.mem op [ "check"; "status"; "metrics"; "dump"; "shutdown" ]
        in
        if Obs.metrics_on () then
          Obs.add
            (Obs.counter
               ("server.op." ^ if known then op else "unknown"))
            1;
        let finish r = finish ~op r in
        Obs.span "server.request"
          ~attrs:[ ("op", op); ("request", rid) ]
          (fun () ->
            match op with
            | "status" ->
              t.ops.op_status <- t.ops.op_status + 1;
              let base =
                match id with Some id -> [ ("id", id) ] | None -> []
              in
              let body =
                match status_json t with
                | Json.Obj kvs -> Json.Obj (base @ kvs)
                | j -> j
              in
              finish (Json.to_string body, `Continue)
            | "metrics" ->
              t.ops.op_metrics <- t.ops.op_metrics + 1;
              finish (metrics_response t ?id req, `Continue)
            | "dump" ->
              t.ops.op_dump <- t.ops.op_dump + 1;
              finish (dump_response t ?id req, `Continue)
            | "shutdown" ->
              t.ops.op_shutdown <- t.ops.op_shutdown + 1;
              let base =
                match id with Some id -> [ ("id", id) ] | None -> []
              in
              finish
                ( Json.to_string
                    (Json.Obj
                       (base
                       @ [
                           ("ok", Json.Bool true);
                           ("shutdown", Json.Bool true);
                         ])),
                  `Stop )
            | "check" -> (
              t.ops.op_check <- t.ops.op_check + 1;
              (* RSS watermark: one forced major GC gets a second opinion
                 before shedding — transient garbage from the previous
                 request must not count against this one. *)
              let over_watermark () =
                t.cfg.max_rss_mb > 0.0
                && rss_mb () > t.cfg.max_rss_mb
                && begin
                     Gc.full_major ();
                     rss_mb () > t.cfg.max_rss_mb
                   end
              in
              if over_watermark () then begin
                t.n_shed_rss <- t.n_shed_rss + 1;
                if Flight.enabled () then begin
                  Flight.record ~req:rid ~kind:"shed"
                    ~detail:(Printf.sprintf "rss_mb=%.1f" (rss_mb ()))
                    "rss-watermark";
                  ignore (Flight.dump ~reason:"rss-shed" t.cfg.flight_file)
                end;
                finish
                  ( error_response ?id
                      ~extra:
                        [
                          ("overloaded", Json.Bool true);
                          ("rss_mb", Json.Float (rss_mb ()));
                        ]
                      "overloaded: resident set above watermark",
                    `Continue )
              end
              else
                let resp =
                  try handle_check t ?id req with
                  | Pinpoint_frontend.Parser.Error (msg, line) ->
                    t.n_errors <- t.n_errors + 1;
                    error_response ?id
                      (Printf.sprintf "parse error at line %d: %s" line msg)
                  | Pinpoint_frontend.Lower.Error (msg, loc) ->
                    t.n_errors <- t.n_errors + 1;
                    error_response ?id
                      (Printf.sprintf "%s:%d: %s" loc.Pinpoint_ir.Stmt.file
                         loc.Pinpoint_ir.Stmt.line msg)
                  | exn ->
                    (* A crash that reached the top barrier is exactly
                       what the flight recorder exists for: dump the ring
                       before answering. *)
                    t.n_errors <- t.n_errors + 1;
                    if Flight.enabled () then begin
                      Flight.record ~req:rid ~kind:"crash"
                        ~detail:(Printexc.to_string exn) "server.check";
                      ignore
                        (Flight.dump
                           ~reason:("crash: " ^ Printexc.to_string exn)
                           t.cfg.flight_file)
                    end;
                    error_response ?id
                      (Printf.sprintf "internal error: %s"
                         (Printexc.to_string exn))
                in
                finish (resp, `Continue))
            | op ->
              t.ops.op_unknown <- t.ops.op_unknown + 1;
              t.n_errors <- t.n_errors + 1;
              finish
                ( error_response ?id (Printf.sprintf "unknown op %S" op),
                  `Continue )))

(* ---------- transports ---------- *)

(* A dedicated reader domain feeds a bounded queue; the main domain
   drains it.  Admission control happens at the queue: when it is full
   the reader answers "overloaded" immediately — without analysing
   anything — so a flooding client gets backpressure instead of
   unbounded buffering. *)
let serve_channels t ic oc : [ `Stop | `Eof ] =
  let m = Mutex.create () in
  let cv = Condition.create () in
  let out_m = Mutex.create () in
  let q = Queue.create () in
  let eof = ref false in
  let with_lock m f =
    Mutex.lock m;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) f
  in
  let write_line resp =
    with_lock out_m (fun () ->
        output_string oc resp;
        output_char oc '\n';
        flush oc)
  in
  let reader =
    Domain.spawn (fun () ->
        let rec loop () =
          match input_line ic with
          | exception (End_of_file | Sys_error _) ->
            with_lock m (fun () ->
                eof := true;
                Condition.signal cv)
          | line ->
            let admitted =
              with_lock m (fun () ->
                  if Queue.length q >= t.cfg.queue_depth then false
                  else begin
                    Queue.add line q;
                    Condition.signal cv;
                    true
                  end)
            in
            if not admitted then begin
              let id =
                match Json.parse line with
                | Ok req -> Json.member "id" req
                | Error _ -> None
              in
              write_line (overloaded_response ?id t)
            end;
            if admitted && is_shutdown line then
              (* Nothing after a queued shutdown is served: stop reading
                 instead of blocking in [input_line] on an input the
                 client may keep open. *)
              with_lock m (fun () ->
                  eof := true;
                  Condition.signal cv)
            else loop ()
        in
        loop ())
  in
  let rec drain () =
    let next =
      with_lock m (fun () ->
          while Queue.is_empty q && not !eof do
            Condition.wait cv m
          done;
          if Queue.is_empty q then None else Some (Queue.pop q))
    in
    match next with
    | None -> `Eof
    | Some line -> (
      let resp, action = handle_line t line in
      write_line resp;
      match action with `Continue -> drain () | `Stop -> `Stop)
  in
  let result = drain () in
  Domain.join reader;
  result

let serve_stdio t = ignore (serve_channels t stdin stdout)

let serve_socket t path =
  if Sys.file_exists path then Sys.remove path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      let rec accept_loop () =
        let conn, _ = Unix.accept sock in
        let ic = Unix.in_channel_of_descr conn in
        let oc = Unix.out_channel_of_descr conn in
        let result = serve_channels t ic oc in
        (try Unix.close conn with Unix.Unix_error _ -> ());
        match result with `Eof -> accept_loop () | `Stop -> ()
      in
      accept_loop ())
