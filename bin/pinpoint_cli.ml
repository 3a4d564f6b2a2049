(* The pinpoint command-line driver.

   Usage:
     pinpoint check FILE.mc [-c use-after-free] [-c double-free] ...
     pinpoint dump FILE.mc [--what cfg|seg|iface]
     pinpoint baseline FILE.mc [--tool svf|infer|csa]
     pinpoint list-checkers *)

open Cmdliner

let checkers_conv =
  let parse s =
    match Pinpoint.Checkers.by_name s with
    | Some c -> Ok c
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown checker %s (try: %s)" s
             (String.concat ", "
                (List.map
                   (fun (c : Pinpoint.Checker_spec.t) -> c.Pinpoint.Checker_spec.name)
                   Pinpoint.Checkers.all))))
  in
  let print ppf (c : Pinpoint.Checker_spec.t) =
    Format.pp_print_string ppf c.Pinpoint.Checker_spec.name
  in
  Arg.conv (parse, print)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MC source file")

let files_arg =
  Arg.(
    non_empty & pos_all file []
    & info [] ~docv:"FILE"
        ~doc:
          "MC source file(s); several files are compiled as one program \
           (calls may cross file boundaries)")

let checkers_arg =
  Arg.(
    value
    & opt_all checkers_conv Pinpoint.Checkers.all
    & info [ "c"; "checker" ] ~docv:"NAME" ~doc:"Checker to run (repeatable)")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print value-flow traces")

let confirm_arg =
  Arg.(
    value & flag
    & info [ "confirm" ]
        ~doc:"Fuzz the program with the concrete interpreter and mark reports \
              whose sink was observed at run time")

(* Resilience / fault-injection flags (shared by check and leaks). *)

let deadline_arg =
  Arg.(
    value & opt float infinity
    & info [ "deadline" ] ~docv:"SEC"
        ~doc:
          "Wall-clock budget per checker run.  On expiry, in-flight \
           feasibility queries step down the solver degradation ladder and \
           the remaining sources are skipped; reports found so far are kept.")

let solver_budget_arg =
  Arg.(
    value & opt float infinity
    & info [ "solver-budget" ] ~docv:"SEC"
        ~doc:
          "Wall-clock budget per feasibility query for the full solver rung \
           (the halved retry gets half of it).")

let solver_conflicts_arg =
  Arg.(
    value & opt int Pinpoint_smt.Sat.default_budget
    & info [ "solver-conflicts" ] ~docv:"N"
        ~doc:
          "CDCL conflict budget per SAT call for the full solver rung (the \
           halved retry gets half).  Exhaustion yields an Unknown verdict \
           (report kept), not a ladder step-down.")

let inject_seed_arg =
  Arg.(
    value & opt int 0
    & info [ "inject-seed" ] ~docv:"N"
        ~doc:"Fault-injection PRNG seed (same seed, same faults).")

let inject_rate_arg =
  Arg.(
    value & opt float 0.0
    & info [ "inject-rate" ] ~docv:"R"
        ~doc:
          "Probability that a solver query is sabotaged (crash, hang until \
           deadline, or forced unknown — drawn uniformly).")

let inject_seg_rate_arg =
  Arg.(
    value & opt float 0.0
    & info [ "inject-seg-rate" ] ~docv:"R"
        ~doc:
          "Probability that a function's SEG is sabotaged, split evenly over \
           drop / truncate / crash-during-build.")

let no_prune_arg =
  Arg.(
    value & flag
    & info [ "no-prune" ]
        ~doc:
          "Disable linear-solver prefix pruning of path conditions (every \
           candidate gets a full SMT query; the report set is unchanged).")

let no_qcache_arg =
  Arg.(
    value & flag
    & info [ "no-qcache" ]
        ~doc:
          "Disable the shared SMT verdict cache (every query is solved from \
           scratch; the report set is unchanged).")

let no_core_cache_arg =
  Arg.(
    value & flag
    & info [ "no-core-cache" ]
        ~doc:
          "Disable the unsat-core subsumption cache (queries whose conjunct \
           set contains a previously stored core pay full CDCL again; the \
           report set is unchanged).")

let no_refine_arg =
  Arg.(
    value & flag
    & info [ "no-refine" ]
        ~doc:
          "Disable demand-driven refinement of Sat feasibility verdicts \
           (reports refuted only by derived linear facts — false positives \
           of the weak nonlinear theory — are kept).")

let prune_stride_arg =
  Arg.(
    value & opt int Pinpoint.Engine.default_config.Pinpoint.Engine.prune_stride
    & info [ "prune-stride" ] ~docv:"N"
        ~doc:
          "Run the linear prefix check every $(docv) hops of the search \
           (1 = every hop).")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run the analysis on $(docv) domains (default 1 = sequential, \
           capped at the host's core count — extra domains beyond that \
           only add GC-barrier overhead).  Reports, stats and injected \
           faults are identical at every level.")

let chunk_size_arg =
  Arg.(
    value & opt int 0
    & info [ "chunk-size" ] ~docv:"N"
        ~doc:
          "Force parallel task batches of exactly $(docv) work items \
           (functions) each.  Default 0 = automatic: about four \
           weight-balanced chunks per worker.  A tuning knob for \
           $(b,--jobs); reports and stats are identical at every value.")

let rss_cap_arg =
  Arg.(
    value & opt float 0.0
    & info [ "rss-cap-mb" ] ~docv:"MB"
        ~doc:
          "Fail (exit 3) if the process peak RSS exceeded $(docv) megabytes \
           by the end of the run (0 = no cap).  Used by CI to pin the \
           in-memory analysis's peak memory.")

let check_rss_cap ~rss_cap_mb =
  if rss_cap_mb > 0.0 then begin
    let peak_mb = float_of_int (Pinpoint_util.Metrics.peak_rss_kb ()) /. 1024.0 in
    if peak_mb > rss_cap_mb then begin
      Printf.eprintf "peak RSS %.1f MB exceeds cap %.1f MB\n" peak_mb rss_cap_mb;
      exit 3
    end
  end

let publish_process_obs () =
  if Pinpoint_obs.Obs.metrics_on () then
    Pinpoint_obs.Obs.set_gauge
      (Pinpoint_obs.Obs.gauge "process.maxrss_kb")
      (float_of_int (Pinpoint_util.Metrics.peak_rss_kb ()))

(* Observability flags (DESIGN.md §4.11), shared by check and stats.
   Observability never changes the analysis: reports and stats are
   byte-identical with it on or off. *)

let trace_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON timeline of the run to $(docv) \
           (one track per domain; open in chrome://tracing or Perfetto).  \
           Implies full tracing.")

let metrics_json_arg =
  Arg.(
    value & opt (some string) None
    & info [ "metrics-json" ] ~docv:"FILE"
        ~doc:
          "Write the metrics registry (counters, gauges, histograms) and the \
           SMT query profile (rung distribution, top-K slowest queries with \
           source/sink attribution) as JSON to $(docv).")

let obs_arg =
  Arg.(
    value & flag
    & info [ "obs" ]
        ~doc:"Print the observability summary (metrics tables and the SMT \
              query profile) after the run.")

let set_obs_level ~trace ~metrics_json ~obs =
  Pinpoint_obs.Obs.set_level
    (if trace <> None then Pinpoint_obs.Obs.Trace
     else if metrics_json <> None || obs then Pinpoint_obs.Obs.Metrics_only
     else Pinpoint_obs.Obs.Off)

(* Called explicitly before any [exit 2] (a [Fun.protect] finaliser would
   not run across [exit]). *)
let export_obs ?pool ~trace ~metrics_json ~obs () =
  (* The pool outlives the export (it is shut down by [with_jobs]), so
     fold its par.* counters into the registry before writing the file. *)
  Option.iter Pinpoint_par.Pool.publish_obs pool;
  Option.iter Pinpoint_obs.Export.write_trace trace;
  Option.iter Pinpoint_obs.Export.write_metrics metrics_json;
  if obs then Format.printf "%a" Pinpoint_obs.Export.pp_summary ()

(* [--jobs 1] must be the plain sequential pipeline — no pool, no domains —
   so it stays byte-for-byte the historical code path. *)
let with_jobs ?(chunk_size = 0) jobs f =
  Pinpoint_par.Chunk.set_override
    (if chunk_size > 0 then Some chunk_size else None);
  let jobs = Pinpoint_par.Pool.effective_jobs jobs in
  if jobs <= 1 then f None
  else Pinpoint_par.Pool.with_pool ~jobs (fun p -> f (Some p))

let install_injection ~seed ~rate ~seg_rate =
  if rate > 0.0 || seg_rate > 0.0 then
    Pinpoint_util.Resilience.Inject.(
      install
        {
          default with
          seed;
          solver_fault_rate = rate;
          seg_drop_rate = seg_rate /. 3.0;
          seg_truncate_rate = seg_rate /. 3.0;
          seg_crash_rate = seg_rate /. 3.0;
        })

let print_incidents ~verbose (a : Pinpoint.Analysis.t) =
  let res = a.Pinpoint.Analysis.resilience in
  if Pinpoint_util.Resilience.count res > 0 then begin
    Format.printf "== incidents: %a@." Pinpoint_util.Resilience.pp_summary res;
    if verbose then
      List.iter
        (fun i ->
          Format.printf "  %a@." Pinpoint_util.Resilience.pp_incident i)
        (Pinpoint_util.Resilience.incidents res)
  end

let check_cmd =
  let run files checkers verbose confirm deadline_s budget_s solver_conflicts
      seed rate seg_rate no_prune no_qcache no_core_cache no_refine
      prune_stride jobs chunk_size rss_cap_mb trace
      metrics_json obs =
    install_injection ~seed ~rate ~seg_rate;
    set_obs_level ~trace ~metrics_json ~obs;
    with_jobs ~chunk_size jobs @@ fun pool ->
    match Pinpoint.Analysis.prepare_files ?pool files with
    | exception Pinpoint_frontend.Parser.Error (msg, line) ->
      Printf.eprintf "%s:%d: parse error: %s\n" (String.concat "," files) line
        msg;
      exit 1
    | exception Pinpoint_frontend.Lower.Error (msg, loc) ->
      Printf.eprintf "%s:%d: error: %s\n" loc.Pinpoint_ir.Stmt.file
        loc.Pinpoint_ir.Stmt.line msg;
      exit 1
    | a ->
      let any = ref false in
      List.iter
        (fun (spec : Pinpoint.Checker_spec.t) ->
          (* A fresh per-checker deadline: one slow checker cannot starve
             the next one of its whole budget. *)
          let config =
            {
              Pinpoint.Engine.default_config with
              deadline = Pinpoint_util.Metrics.deadline_after deadline_s;
              solver_budget_s = budget_s;
              solver_conflict_budget = solver_conflicts;
              prune_prefixes = not no_prune;
              prune_stride;
              use_qcache = not no_qcache;
              use_corecache = not no_core_cache;
              use_refine = not no_refine;
            }
          in
          let reports, stats = Pinpoint.Analysis.check ~config a spec in
          let reported = List.filter Pinpoint.Report.is_reported reports in
          let degraded =
            stats.Pinpoint.Engine.n_rung_halved
            + stats.Pinpoint.Engine.n_rung_linear
            + stats.Pinpoint.Engine.n_rung_gave_up
          in
          Format.printf "== %s: %d report(s) (%d sources, %d candidates)%t@."
            spec.Pinpoint.Checker_spec.name (List.length reported)
            stats.Pinpoint.Engine.n_sources stats.Pinpoint.Engine.n_candidates
            (fun ppf ->
              if degraded > 0 then
                Format.fprintf ppf " [degraded queries: %d halved, %d linear, %d gave-up]"
                  stats.Pinpoint.Engine.n_rung_halved
                  stats.Pinpoint.Engine.n_rung_linear
                  stats.Pinpoint.Engine.n_rung_gave_up);
          let statuses =
            if confirm then
              Pinpoint.Confirm.confirm_all a.Pinpoint.Analysis.prog reported
            else List.map (fun r -> (r, `Unconfirmed)) reported
          in
          List.iter
            (fun ((r : Pinpoint.Report.t), status) ->
              any := true;
              let suffix =
                if confirm then
                  Pinpoint_util.Pp.to_string
                    (fun ppf () ->
                      Format.fprintf ppf " [%a]" Pinpoint.Confirm.pp_status status)
                    ()
                else ""
              in
              if verbose then Format.printf "%a%s@." Pinpoint.Report.pp r suffix
              else
                Format.printf "%s%s@." (Pinpoint.Report.one_line r) suffix)
            statuses)
        checkers;
      print_incidents ~verbose a;
      publish_process_obs ();
      export_obs ?pool ~trace ~metrics_json ~obs ();
      check_rss_cap ~rss_cap_mb;
      if !any then exit 2
  in
  let term =
    Term.(
      const run $ files_arg $ checkers_arg $ verbose_arg $ confirm_arg
      $ deadline_arg $ solver_budget_arg $ solver_conflicts_arg
      $ inject_seed_arg $ inject_rate_arg
      $ inject_seg_rate_arg $ no_prune_arg $ no_qcache_arg $ no_core_cache_arg
      $ no_refine_arg $ prune_stride_arg
      $ jobs_arg $ chunk_size_arg $ rss_cap_arg $ trace_arg $ metrics_json_arg
      $ obs_arg)
  in
  Cmd.v (Cmd.info "check" ~doc:"Run checkers on MC source file(s)") term

let what_arg =
  Arg.(
    value
    & opt (enum [ ("cfg", `Cfg); ("seg", `Seg); ("iface", `Iface); ("ir", `Ir) ]) `Seg
    & info [ "what" ] ~doc:"What to dump: cfg, seg, iface or ir")

let dump_cmd =
  let run file what =
    let a = Pinpoint.Analysis.prepare_file file in
    List.iter
      (fun (f : Pinpoint_ir.Func.t) ->
        match what with
        | `Cfg -> print_string (Pinpoint_ir.Func.dot f)
        | `Ir -> Format.printf "%a@." Pinpoint_ir.Func.pp f
        | `Seg -> (
          match Pinpoint.Analysis.seg_of a f.Pinpoint_ir.Func.fname with
          | Some seg -> print_string (Pinpoint_seg.Seg.dot seg)
          | None -> ())
        | `Iface -> (
          match
            Hashtbl.find_opt
              a.Pinpoint.Analysis.transform.Pinpoint_transform.Transform.ifaces
              f.Pinpoint_ir.Func.fname
          with
          | Some iface ->
            Format.printf "%s: %a@." f.Pinpoint_ir.Func.fname
              Pinpoint_transform.Transform.pp_iface iface
          | None -> ()))
      (Pinpoint_ir.Prog.functions a.Pinpoint.Analysis.prog)
  in
  let term = Term.(const run $ file_arg $ what_arg) in
  Cmd.v (Cmd.info "dump" ~doc:"Dump IR / CFG / SEG / interfaces") term

let tool_arg =
  Arg.(
    value
    & opt (enum [ ("svf", `Svf); ("infer", `Infer); ("csa", `Csa) ]) `Svf
    & info [ "tool" ] ~doc:"Baseline tool: svf, infer or csa")

let baseline_cmd =
  let run file tool =
    let prog = Pinpoint_frontend.Lower.compile_file file in
    let print_report source_fn source_loc sink_loc =
      Format.printf "use-after-free: %a -> %a (%s)@." Pinpoint_ir.Stmt.pp_loc
        source_loc Pinpoint_ir.Stmt.pp_loc sink_loc source_fn
    in
    match tool with
    | `Svf ->
      let svf = Pinpoint_baselines.Svf.build prog in
      let st = Pinpoint_baselines.Svf.stats svf in
      Format.printf
        "FSVFG: %d nodes, %d direct + %d indirect edges%s@." st.n_nodes
        st.n_direct_edges st.n_indirect_edges
        (if st.timed_out then " (timed out)" else "");
      List.iter
        (fun (r : Pinpoint_baselines.Svf.report) ->
          print_report r.source_fn r.source_loc r.sink_loc)
        (Pinpoint_baselines.Svf.check_uaf svf)
    | `Infer ->
      List.iter
        (fun (r : Pinpoint_baselines.Infer_like.report) ->
          print_report r.source_fn r.source_loc r.sink_loc)
        (Pinpoint_baselines.Infer_like.check_uaf prog)
    | `Csa ->
      List.iter
        (fun (r : Pinpoint_baselines.Csa_like.report) ->
          print_report r.source_fn r.source_loc r.sink_loc)
        (Pinpoint_baselines.Csa_like.check_uaf prog)
  in
  let term = Term.(const run $ file_arg $ tool_arg) in
  Cmd.v (Cmd.info "baseline" ~doc:"Run a baseline tool on an MC source file") term

let leaks_cmd =
  let run file seed rate seg_rate jobs chunk_size =
    install_injection ~seed ~rate ~seg_rate;
    with_jobs ~chunk_size jobs @@ fun pool ->
    let a = Pinpoint.Analysis.prepare_file ?pool file in
    let reports =
      Pinpoint.Leak.check ~resilience:a.Pinpoint.Analysis.resilience
        a.Pinpoint.Analysis.prog ~seg_of:(Pinpoint.Analysis.seg_of a)
        ~rv:a.Pinpoint.Analysis.rv
    in
    Format.printf "== memory-leak: %d report(s)@." (List.length reports);
    List.iter (fun r -> Format.printf "%a" Pinpoint.Leak.pp r) reports;
    print_incidents ~verbose:false a;
    if reports <> [] then exit 2
  in
  let term =
    Term.(
      const run $ file_arg $ inject_seed_arg $ inject_rate_arg
      $ inject_seg_rate_arg $ jobs_arg $ chunk_size_arg)
  in
  Cmd.v (Cmd.info "leaks" ~doc:"Run the memory-leak checker") term

let stats_cmd =
  let run file jobs chunk_size trace metrics_json obs =
    set_obs_level ~trace ~metrics_json ~obs;
    with_jobs ~chunk_size jobs @@ fun pool ->
    let a = Pinpoint.Analysis.prepare_file ?pool file in
    let v, e = Pinpoint.Analysis.seg_size a in
    let prog = a.Pinpoint.Analysis.prog in
    Format.printf "functions: %d   statements: %d   SEG: %d vertices, %d edges@."
      (List.length (Pinpoint_ir.Prog.functions prog))
      (Pinpoint_ir.Prog.n_stmts prog)
      v e;
    let m = a.Pinpoint.Analysis.metrics in
    Format.printf "phases: frontend %a | transform+PTA %a | SEG %a | summaries %a@."
      Pinpoint_util.Metrics.pp_duration m.Pinpoint.Analysis.frontend.wall_s
      Pinpoint_util.Metrics.pp_duration m.Pinpoint.Analysis.transform.wall_s
      Pinpoint_util.Metrics.pp_duration m.Pinpoint.Analysis.seg_build.wall_s
      Pinpoint_util.Metrics.pp_duration m.Pinpoint.Analysis.summaries.wall_s;
    Format.printf "@.%-24s %6s %6s %8s %8s  %s@." "function" "stmts" "blocks"
      "SEG |V|" "SEG |E|" "interface";
    List.iter
      (fun (f : Pinpoint_ir.Func.t) ->
        let name = f.Pinpoint_ir.Func.fname in
        let iface =
          match
            Hashtbl.find_opt
              a.Pinpoint.Analysis.transform.Pinpoint_transform.Transform.ifaces
              name
          with
          | Some i ->
            Pinpoint_util.Pp.to_string Pinpoint_transform.Transform.pp_iface i
          | None -> "-"
        in
        let sv, se =
          match Pinpoint.Analysis.seg_of a name with
          | Some seg ->
            (Pinpoint_seg.Seg.n_vertices seg, Pinpoint_seg.Seg.n_edges seg)
          | None -> (0, 0)
        in
        Format.printf "%-24s %6d %6d %8d %8d  %s@." name
          (Pinpoint_ir.Func.n_stmts f)
          (Pinpoint_ir.Func.n_blocks f)
          sv se iface)
      (Pinpoint_ir.Prog.functions prog);
    export_obs ?pool ~trace ~metrics_json ~obs ()
  in
  let term =
    Term.(
      const run $ file_arg $ jobs_arg $ chunk_size_arg $ trace_arg
      $ metrics_json_arg $ obs_arg)
  in
  Cmd.v (Cmd.info "stats" ~doc:"Per-function analysis statistics") term

(* ---------- the analysis server (DESIGN.md §4.13) ---------- *)

let socket_arg =
  Arg.(
    value & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Serve newline-delimited JSON requests over a Unix-domain socket \
           at $(docv) (default: stdin/stdout).")

let queue_depth_arg =
  Arg.(
    value & opt int Pinpoint_server.Server.default_config.queue_depth
    & info [ "queue-depth" ] ~docv:"N"
        ~doc:
          "Admission control: requests queued beyond $(docv) are refused \
           with an explicit overloaded response instead of buffering.")

let max_rss_arg =
  Arg.(
    value & opt float 0.0
    & info [ "max-rss-mb" ] ~docv:"MB"
        ~doc:
          "Load shedding: refuse check requests (after one forced major GC) \
           while the resident set exceeds $(docv) megabytes (0 = unlimited).")

let snapshot_dir_arg =
  Arg.(
    value & opt (some string) None
    & info [ "snapshot-dir" ] ~docv:"DIR"
        ~doc:
          "Crash-safe warm restart: write epoch snapshots and an update \
           journal under $(docv), and recover from them at startup.")

let snapshot_every_arg =
  Arg.(
    value & opt int Pinpoint_server.Server.default_config.snapshot_every
    & info [ "snapshot-every" ] ~docv:"N"
        ~doc:"Full snapshot (and journal truncation) every $(docv) updates.")

let qcache_cap_arg =
  Arg.(
    value & opt int 0
    & info [ "qcache-cap" ] ~docv:"N"
        ~doc:
          "Cap the shared SMT verdict cache at $(docv) entries with \
           clock/LRU eviction (0 = unbounded).")

let incident_cap_arg =
  Arg.(
    value & opt int Pinpoint_server.Server.default_config.incident_cap
    & info [ "incident-cap" ] ~docv:"N"
        ~doc:
          "Retain at most $(docv) incidents in the shared log; older ones \
           are rotated out but stay counted.")

let serve_files_arg =
  Arg.(
    value & pos_all file []
    & info [] ~docv:"FILE"
        ~doc:
          "Initial MC source file(s) to load; may be empty, in which case \
           the first check request must carry the full file set.")

let prom_file_arg =
  Arg.(
    value & opt (some string) None
    & info [ "prom-file" ] ~docv:"PATH"
        ~doc:
          "Write a Prometheus text exposition of the live metrics registry \
           to $(docv), refreshed at request-processing time at most every \
           $(b,--prom-every) seconds.")

let prom_every_arg =
  Arg.(
    value & opt float Pinpoint_server.Server.default_config.prom_every_s
    & info [ "prom-every" ] ~docv:"SEC"
        ~doc:"Minimum seconds between $(b,--prom-file) refreshes.")

let flight_file_arg =
  Arg.(
    value & opt string Pinpoint_server.Server.default_config.flight_file
    & info [ "flight-file" ] ~docv:"PATH"
        ~doc:
          "Flight-recorder dump target for crashes, RSS sheds and the \
           $(b,dump) op's default.")

let no_flight_arg =
  Arg.(
    value & flag
    & info [ "no-flight" ]
        ~doc:
          "Disable the always-on flight recorder (normally kept on even at \
           obs level off; its per-event cost is a few dozen nanoseconds).")

let serve_cmd =
  let run files socket queue_depth max_rss_mb snapshot_dir snapshot_every
      qcache_cap incident_cap deadline_s budget_s solver_conflicts seed rate
      seg_rate jobs chunk_size prom_file prom_every
      flight_file no_flight trace metrics_json obs =
    install_injection ~seed ~rate ~seg_rate;
    set_obs_level ~trace ~metrics_json ~obs;
    with_jobs ~chunk_size jobs @@ fun pool ->
    let config =
      {
        Pinpoint_server.Server.queue_depth;
        max_rss_mb;
        snapshot_dir;
        snapshot_every;
        incident_cap;
        qcache_cap = (if qcache_cap > 0 then Some qcache_cap else None);
        default_deadline_s = deadline_s;
        solver_budget_s = budget_s;
        solver_conflicts;
        pool;
        prom_file;
        prom_every_s = prom_every;
        flight_file;
        flight = not no_flight;
        window_width_s =
          Pinpoint_server.Server.default_config.window_width_s;
        window_slots = Pinpoint_server.Server.default_config.window_slots;
      }
    in
    let t = Pinpoint_server.Server.create ~config () in
    let recovered = Pinpoint_server.Server.recover t in
    if (not recovered) && files <> [] then begin
      let read path =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> (path, really_input_string ic (in_channel_length ic)))
      in
      match Pinpoint_server.Server.load_files t (List.map read files) with
      | () -> ()
      | exception Pinpoint_frontend.Parser.Error (msg, line) ->
        Printf.eprintf "%s:%d: parse error: %s\n" (String.concat "," files)
          line msg;
        exit 1
      | exception Pinpoint_frontend.Lower.Error (msg, loc) ->
        Printf.eprintf "%s:%d: error: %s\n" loc.Pinpoint_ir.Stmt.file
          loc.Pinpoint_ir.Stmt.line msg;
        exit 1
    end;
    (match socket with
    | Some path -> Pinpoint_server.Server.serve_socket t path
    | None -> Pinpoint_server.Server.serve_stdio t);
    publish_process_obs ();
    export_obs ?pool ~trace ~metrics_json ~obs ()
  in
  let term =
    Term.(
      const run $ serve_files_arg $ socket_arg $ queue_depth_arg $ max_rss_arg
      $ snapshot_dir_arg $ snapshot_every_arg $ qcache_cap_arg
      $ incident_cap_arg $ deadline_arg $ solver_budget_arg
      $ solver_conflicts_arg $ inject_seed_arg $ inject_rate_arg
      $ inject_seg_rate_arg $ jobs_arg $ chunk_size_arg $ prom_file_arg
      $ prom_every_arg $ flight_file_arg $ no_flight_arg $ trace_arg $ metrics_json_arg $ obs_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent analysis server (newline-delimited JSON \
          requests; incremental re-analysis of changed files)")
    term

let list_cmd =
  let run () =
    List.iter
      (fun (c : Pinpoint.Checker_spec.t) ->
        Printf.printf "%-20s %s\n" c.Pinpoint.Checker_spec.name
          c.Pinpoint.Checker_spec.description)
      Pinpoint.Checkers.all
  in
  Cmd.v (Cmd.info "list-checkers" ~doc:"List available checkers")
    Term.(const run $ const ())

let main =
  let doc = "Pinpoint: fast and precise sparse value-flow analysis" in
  Cmd.group (Cmd.info "pinpoint" ~doc)
    [ check_cmd; dump_cmd; baseline_cmd; stats_cmd; leaks_cmd; serve_cmd; list_cmd ]

let () = exit (Cmd.eval main)
