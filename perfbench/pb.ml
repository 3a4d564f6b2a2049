(* Benchmark worker for Pinpoint (see README.md beside this file).

   Subcommands, each driven by run.py:

     gen WORKLOAD SEED SIZE DIR
         write the inputs of one workload into DIR
     batch DIR [--traced] [--jobs N] [--trace-out FILE] [--drop-report]
         one leg of a batch workload (scale, table1) over DIR
     serve-trace DIR REQUESTS TRACE_OUT
         traced in-process replay of a serve session's request stream
     serve-batch DIR FILES_DIR [--drop-report]
         in-process batch check over a serve session's final file contents

   Every leg prints exactly one JSON object on stdout.  The untraced
   batch leg calls the user-facing API ([Analysis.prepare_source],
   [Analysis.check]); the traced legs call each layer's public entry point
   in pipeline order and record one span per call. *)

module Analysis = Pinpoint.Analysis
module Checkers = Pinpoint.Checkers
module Spec = Pinpoint.Checker_spec
module Engine = Pinpoint.Engine
module Report = Pinpoint.Report
module Gen = Pinpoint_workload.Gen
module Subjects = Pinpoint_workload.Subjects
module Truth = Pinpoint_workload.Truth
module Parser = Pinpoint_frontend.Parser
module Lower = Pinpoint_frontend.Lower
module Transform = Pinpoint_transform.Transform
module Seg = Pinpoint_seg.Seg
module Rv = Pinpoint_summary.Rv
module Vf = Pinpoint_summary.Vf
module Prog = Pinpoint_ir.Prog
module Func = Pinpoint_ir.Func
module Var = Pinpoint_ir.Var
module Stmt = Pinpoint_ir.Stmt
module Pool = Pinpoint_par.Pool
module Chunk = Pinpoint_par.Chunk
module Solver = Pinpoint_smt.Solver
module Corecache = Pinpoint_smt.Corecache
module Obs = Pinpoint_obs.Obs
module Metrics = Pinpoint_util.Metrics
module Resilience = Pinpoint_util.Resilience
module Json = Pinpoint_server.Json
module Incr = Pinpoint_server.Incr

let now = Metrics.now_mono
let ( // ) = Filename.concat

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let read_lines path =
  List.filter (fun l -> l <> "") (String.split_on_char '\n' (read_file path))

let save_truth path (t : Truth.planted list) =
  Out_channel.with_open_bin path (fun oc -> Marshal.to_channel oc t [])

let load_truth path : Truth.planted list =
  In_channel.with_open_bin path Marshal.from_channel

let peak_rss_mb () = float_of_int (Metrics.peak_rss_kb ()) /. 1024.0

(* ------------------------------------------------------------------ *)
(* Inputs *)

(* Split a generated subject at its [unit] declarations: file [k] holds
   unit [k] (file 0 also the shared helpers before the first unit).  Lines
   are copied verbatim, so a planted line maps back to the generator's
   numbering as [offset + local line]. *)
let split_units src =
  let lines = Array.of_list (String.split_on_char '\n' src) in
  let starts = ref [ 0 ] and seen_unit = ref false in
  Array.iteri
    (fun i l ->
      if String.starts_with ~prefix:"unit \"" l then begin
        if !seen_unit then starts := i :: !starts;
        seen_unit := true
      end)
    lines;
  let starts = Array.of_list (List.rev !starts) in
  let n = Array.length lines in
  Array.to_list
    (Array.mapi
       (fun k first ->
         let last = if k + 1 < Array.length starts then starts.(k + 1) else n in
         let body = Array.sub lines first (last - first) in
         (Printf.sprintf "unit%d.mc" k, first, String.concat "\n" (Array.to_list body) ^ "\n"))
       starts)

let gen workload seed size dir =
  let manifest = Buffer.create 256 in
  let add_batch name (s : Gen.subject) =
    write_file (dir // name) s.Gen.source;
    save_truth (dir // (name ^ ".truth")) s.Gen.truth;
    Buffer.add_string manifest (Printf.sprintf "%s\t%d\n" name s.Gen.loc)
  in
  (match workload with
  | "scale" ->
    add_batch "scale.mc"
      (Gen.generate ~name:"scale.mc" (Gen.scaled ~seed ~mloc:size ()))
  | "table1" ->
    (* [size] > 0 keeps only the [size] smallest open-source subjects
       (smoke runs: the SPEC subjects have no reports to alter). *)
    let subjects =
      if size <= 0.0 then Subjects.all
      else
        List.filteri
          (fun i _ -> float_of_int i < size)
          (List.sort
             (fun (a : Subjects.info) (b : Subjects.info) ->
               compare a.Subjects.params.Gen.target_loc
                 b.Subjects.params.Gen.target_loc)
             (List.filter
                (fun (i : Subjects.info) -> i.Subjects.category = Subjects.Open_source)
                Subjects.all))
    in
    List.iter
      (fun (info : Subjects.info) ->
        let name = info.Subjects.name ^ ".mc" in
        add_batch name (Gen.generate ~name { info.Subjects.params with Gen.seed }))
      subjects
  | "serve-edits" ->
    let s = Gen.generate ~name:"serve" (Gen.scaled ~seed ~mloc:size ()) in
    Sys.mkdir (dir // "init") 0o755;
    List.iter
      (fun (name, offset, contents) ->
        write_file (dir // "init" // name) contents;
        Buffer.add_string manifest (Printf.sprintf "%s\t%d\n" name offset))
      (split_units s.Gen.source);
    save_truth (dir // "truth") s.Gen.truth;
    Buffer.add_string manifest (Printf.sprintf "#loc\t%d\n" s.Gen.loc)
  | w -> failwith ("unknown workload " ^ w));
  write_file (dir // "manifest") (Buffer.contents manifest)

let manifest dir =
  List.filter_map
    (fun l ->
      match String.split_on_char '\t' l with
      | [ name; n ] when name.[0] <> '#' -> Some (name, int_of_string n)
      | _ -> None)
    (read_lines (dir // "manifest"))

(* ------------------------------------------------------------------ *)
(* Spans: name, start, end, parent; kept in memory, written at the end. *)

type span = { id : int; parent : int; name : string; t0 : float; t1 : float }

let spans : span list ref = ref []
let stack = ref [ 0 ]
let next_id = ref 0
let trace_origin = ref 0.0

let span name f =
  incr next_id;
  let id = !next_id and parent = List.hd !stack in
  stack := id :: !stack;
  let t0 = now () in
  let finish () =
    stack := List.tl !stack;
    spans := { id; parent; name; t0; t1 = now () } :: !spans
  in
  match f () with
  | r ->
    finish ();
    r
  | exception e ->
    finish ();
    raise e

(* Self time per span name: a span's duration minus the part its
   children cover (children never overlap: spans nest on one thread). *)
let self_times () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      Hashtbl.replace child s.parent
        (d +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !spans;
  let self = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d =
        s.t1 -. s.t0 -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)
      in
      Hashtbl.replace self s.name
        (d +. Option.value ~default:0.0 (Hashtbl.find_opt self s.name)))
    !spans;
  self

let write_chrome_trace path counters =
  let us t = Json.Float (Float.round ((t -. !trace_origin) *. 1e7) /. 10.0) in
  let events =
    List.rev_map
      (fun s ->
        Json.Obj
          [
            ("name", Json.String s.name);
            ("ph", Json.String "X");
            ("ts", us s.t0);
            ("dur", Json.Float (Float.round ((s.t1 -. s.t0) *. 1e7) /. 10.0));
            ("pid", Json.Int 1);
            ("tid", Json.Int 1);
            ( "args",
              Json.Obj [ ("id", Json.Int s.id); ("parent", Json.Int s.parent) ]
            );
          ])
      !spans
  in
  let t_end = List.fold_left (fun a s -> Float.max a s.t1) 0.0 !spans in
  let counter_events =
    List.map
      (fun (name, v) ->
        Json.Obj
          [
            ("name", Json.String name);
            ("ph", Json.String "C");
            ("ts", us t_end);
            ("pid", Json.Int 1);
            ("args", Json.Obj [ ("value", Json.Float v) ]);
          ])
      counters
  in
  write_file path
    (Json.to_string
       (Json.Obj [ ("traceEvents", Json.List (events @ counter_events)) ]))

(* ------------------------------------------------------------------ *)
(* Per-layer metrics, accumulated by name *)

let layer : (string, float) Hashtbl.t = Hashtbl.create 64

let bump name v =
  Hashtbl.replace layer name
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt layer name))

let bumpi name n = bump name (float_of_int n)
let layer_value name = Option.value ~default:0.0 (Hashtbl.find_opt layer name)

let checker_names = List.map (fun (c : Spec.t) -> c.Spec.name) Checkers.all

(* Every per-layer metric name, so each leg prints all of them (0 where a
   workload does not exercise or cannot separate the layer). *)
let layer_names =
  [
    "frontend.parse_s"; "frontend.lower_s"; "frontend.alloc_words_per_loc";
    "ir.funcs"; "ir.stmts"; "transform.run_s"; "transform.alloc_words_per_loc";
    "seg.build_s"; "seg.vertices"; "seg.edges"; "seg.alloc_words_per_loc";
    "summary.rv_s"; "summary.vf_s";
  ]
  @ List.map (fun c -> "summary.vf_s." ^ c) checker_names
  @ [
      "engine.run_s"; "engine.sources"; "engine.candidates"; "engine.steps";
      "engine.reports"; "smt.queries"; "smt.full_solves"; "smt.propagations";
      "smt.conflicts"; "smt.qcache_hit_ratio"; "smt.qcache_probes";
      "smt.subsume_hit_ratio"; "smt.subsume_probes"; "smt.prefix_prune_ratio";
      "smt.prefix_checks"; "smt.query_s"; "par.busy_s"; "par.tasks";
      "par.steals"; "serve.load_s"; "serve.request_s"; "serve.update_s";
      "serve.check_s"; "serve.codec_s"; "serve.dirty_cone"; "serve.reuse_ratio";
      "serve.reuse_base"; "gc.minor_collections"; "gc.major_collections";
      "unattributed_s";
    ]

let add_engine_stats (s : Engine.stats) reported =
  bumpi "engine.sources" s.Engine.n_sources;
  bumpi "engine.candidates" s.Engine.n_candidates;
  bumpi "engine.steps" s.Engine.n_steps;
  bumpi "engine.reports" reported;
  bumpi "smt.full_solves" s.Engine.n_rung_full;
  bumpi "smt.prefix_checks" s.Engine.n_prefix_checks;
  bumpi "smt.pruned_prefixes" s.Engine.n_pruned_prefixes;
  let q = s.Engine.solver in
  bumpi "smt.queries" q.Solver.n_queries;
  bumpi "smt.propagations" q.Solver.n_propagations;
  bumpi "smt.conflicts" q.Solver.n_conflicts;
  bumpi "smt.qcache_hits" q.Solver.n_cache_hits;
  bumpi "smt.qcache_probes" (q.Solver.n_cache_hits + q.Solver.n_cache_misses)

(* Ratios, process-wide counters and the Obs-registry readings, taken
   once at the end of a traced leg. *)
let finish_layers ?pool () =
  let ratio num den = if den > 0.0 then num /. den else 0.0 in
  Hashtbl.replace layer "smt.qcache_hit_ratio"
    (ratio (layer_value "smt.qcache_hits") (layer_value "smt.qcache_probes"));
  Hashtbl.replace layer "smt.prefix_prune_ratio"
    (ratio (layer_value "smt.pruned_prefixes") (layer_value "smt.prefix_checks"));
  let cc = Corecache.stats () in
  Hashtbl.replace layer "smt.subsume_probes" (float_of_int cc.Corecache.probes);
  Hashtbl.replace layer "smt.subsume_hit_ratio"
    (ratio (float_of_int cc.Corecache.hits) (float_of_int cc.Corecache.probes));
  Option.iter Pool.publish_obs pool;
  let snap = Obs.snapshot () in
  (match List.assoc_opt "smt.query.latency_s" snap with
  | Some (Obs.Snapshot.Histogram { sum; _ }) ->
    Hashtbl.replace layer "smt.query_s" sum
  | _ -> ());
  (match List.assoc_opt "par.busy_s" snap with
  | Some (Obs.Snapshot.Gauge g) -> Hashtbl.replace layer "par.busy_s" g
  | _ -> ());
  (match List.assoc_opt "par.tasks" snap with
  | Some (Obs.Snapshot.Counter n) -> Hashtbl.replace layer "par.tasks" (float_of_int n)
  | _ -> ());
  Option.iter
    (fun p ->
      Hashtbl.replace layer "par.steals"
        (float_of_int (Pool.steal_stats p).Pool.steals))
    pool;
  let gc = Gc.quick_stat () in
  Hashtbl.replace layer "gc.minor_collections" (float_of_int gc.Gc.minor_collections);
  Hashtbl.replace layer "gc.major_collections" (float_of_int gc.Gc.major_collections)

let layers_json () =
  Json.Obj (List.map (fun n -> (n, Json.Float (layer_value n))) layer_names)

(* ------------------------------------------------------------------ *)
(* Reports, scoring, operations *)

(* A run's report set: every reported finding's canonical one-line
   rendering, and its score against the planted truth. *)
type outcome = {
  mutable renders : string list;
  mutable sites : int;  (** distinct reported source sites, per checker *)
  mutable real : int;
  mutable found : int;
  mutable false_pos : int;
  mutable trap_hits : int;
  mutable ops_ms : float list;
  mutable ops_failed : int;
}

let outcome () =
  {
    renders = [];
    sites = 0;
    real = 0;
    found = 0;
    false_pos = 0;
    trap_hits = 0;
    ops_ms = [];
    ops_failed = 0;
  }

let drop_report = ref false

(* Score one checker run; [line_of] maps a report to the generator's line
   numbering.  With [--drop-report] the first non-empty report set loses
   one report: the smoke test's deliberately altered report set. *)
let record o ~truth ~line_of (spec : Spec.t) reports =
  let reported = List.filter Report.is_reported reports in
  let reported =
    match reported with
    | _ :: rest when !drop_report ->
      drop_report := false;
      rest
    | l -> l
  in
  o.renders <- List.rev_append (List.map Report.one_line reported) o.renders;
  let keys =
    List.sort_uniq compare (List.map (fun r -> (line_of r, 0)) reported)
  in
  let s = Truth.classify ~kind:spec.Spec.name truth keys in
  o.sites <- o.sites + s.Truth.n_reports;
  o.real <- o.real + s.Truth.n_real_planted;
  o.found <- o.found + s.Truth.n_found;
  o.false_pos <- o.false_pos + s.Truth.n_fp;
  (* Path-sensitivity traps are planted safe: reporting one is a precision
     failure, unlike the nonlinear "soundy FP" residue. *)
  List.iter
    (fun (line, _) ->
      if
        List.exists
          (fun (p : Truth.planted) ->
            (not p.Truth.real) && p.Truth.kind = spec.Spec.name
            && p.Truth.source_line = line
            && String.ends_with ~suffix:"(safe)" p.Truth.descr)
          truth
      then o.trap_hits <- o.trap_hits + 1)
    keys;
  List.length reported

(* An operation fails if it raises, records an incident, or decides a
   query below the full/cached rung. *)
let degraded (s : Engine.stats) reports =
  s.Engine.n_incidents > 0
  || s.Engine.n_rung_halved + s.Engine.n_rung_linear + s.Engine.n_rung_gave_up > 0
  || List.exists Report.is_degraded reports

let timed_op o f =
  let t0 = now () in
  let r = try Some (f ()) with _ -> None in
  let dt = now () -. t0 in
  o.ops_ms <- (dt *. 1000.0) :: o.ops_ms;
  (match r with
  | Some (reports, stats) when not (degraded stats reports) -> ()
  | _ -> o.ops_failed <- o.ops_failed + 1);
  (r, dt)

let digest renders =
  Digest.to_hex (Digest.string (String.concat "\n" (List.sort compare renders)))

let outcome_fields o =
  [
    ("digest", Json.String (digest o.renders));
    ("n_reports", Json.Int (List.length o.renders));
    ("sites", Json.Int o.sites);
    ("real", Json.Int o.real);
    ("found", Json.Int o.found);
    ("false_pos", Json.Int o.false_pos);
    ("trap_hits", Json.Int o.trap_hits);
    ("ops_ms", Json.List (List.rev_map (fun x -> Json.Float x) o.ops_ms));
    ("ops_failed", Json.Int o.ops_failed);
  ]

let common_fields () =
  [
    ("peak_rss_mb", Json.Float (peak_rss_mb ()));
    ("ocaml", Json.String Sys.ocaml_version);
  ]

let print_json fields = print_endline (Json.to_string (Json.Obj fields))

(* ------------------------------------------------------------------ *)
(* Batch legs *)

type subject = { name : string; src : string; truth : Truth.planted list; loc : int }

let load_subjects dir =
  List.map
    (fun (name, loc) ->
      {
        name;
        src = read_file (dir // name);
        truth = load_truth (dir // (name ^ ".truth"));
        loc;
      })
    (manifest dir)

let batch_untraced ?pool subjects =
  let o = outcome () in
  let setup = ref 0.0 and check = ref 0.0 in
  List.iter
    (fun s ->
      let t0 = now () in
      let a = Analysis.prepare_source ?pool ~file:s.name s.src in
      setup := !setup +. (now () -. t0);
      List.iter
        (fun spec ->
          let r, dt = timed_op o (fun () -> Analysis.check a spec) in
          check := !check +. dt;
          Option.iter
            (fun (reports, _) ->
              ignore
                (record o ~truth:s.truth
                   ~line_of:(fun r -> r.Report.source_loc.Stmt.line)
                   spec reports))
            r)
        Checkers.all)
    subjects;
  (o, !setup, !check)

(* Analysis.prepare's sequential prologue, through public API: force
   every variable's symbol in program order, then reserve heap addresses,
   so that SEG builds are order-independent. *)
let prologue prog =
  List.iter
    (fun (f : Func.t) ->
      List.iter (fun v -> ignore (Var.symbol v)) f.Func.params;
      Func.iter_stmts f (fun _ s ->
          List.iter (fun v -> ignore (Var.symbol v)) (Stmt.def s);
          List.iter (fun v -> ignore (Var.symbol v)) (Stmt.uses s)))
    (Prog.functions prog);
  Seg.reserve_addresses (Prog.functions prog)

let alloc_words ?pool () =
  (Gc.allocated_bytes ()
  +. match pool with Some p -> Pool.allocated_bytes p | None -> 0.0)
  /. float_of_int (Sys.word_size / 8)

(* The staged pipeline of Analysis.prepare + check, one span per layer
   entry point. *)
let batch_staged ?pool o s =
  let resilience = Resilience.create () in
  Option.iter (fun p -> Pool.set_log p (Some resilience)) pool;
  let a0 = alloc_words ?pool () in
  let ast = span "frontend.parse" (fun () -> Parser.parse_string ~file:s.name s.src) in
  let prog = span "frontend.lower" (fun () -> Lower.compile ast) in
  let a1 = alloc_words ?pool () in
  let tr = span "transform" (fun () -> Transform.run ~resilience ?pool prog) in
  let a2 = alloc_words ?pool () in
  prologue prog;
  let a3 = alloc_words ?pool () in
  let funcs = Array.of_list (Prog.functions prog) in
  let segs =
    span "seg" (fun () ->
        let build (f : Func.t) =
          match Hashtbl.find_opt tr.Transform.ptas f.Func.fname with
          | Some pta -> Analysis.build_seg resilience f pta
          | None -> None
        in
        let built =
          match pool with
          | Some p when Pool.jobs p > 1 ->
            Chunk.parallel_map ~weights:(Array.map Func.n_stmts funcs) p build
              funcs
          | _ -> Array.map (fun f -> Some (build f)) funcs
        in
        let segs = Hashtbl.create 64 in
        Array.iteri
          (fun i r ->
            match r with
            | Some (Some seg) -> Hashtbl.replace segs funcs.(i).Func.fname seg
            | _ -> ())
          built;
        segs)
  in
  let a4 = alloc_words ?pool () in
  bump "frontend.alloc_words" (a1 -. a0);
  bump "transform.alloc_words" (a2 -. a1);
  bump "seg.alloc_words" (a4 -. a3);
  bumpi "ir.funcs" (Array.length funcs);
  bumpi "ir.stmts" (Prog.n_stmts prog);
  Hashtbl.iter
    (fun _ seg ->
      bumpi "seg.vertices" (Seg.n_vertices seg);
      bumpi "seg.edges" (Seg.n_edges seg))
    segs;
  let seg_of = Hashtbl.find_opt segs in
  let rv = span "summary.rv" (fun () -> Rv.generate ~resilience ?pool prog seg_of) in
  List.iter
    (fun (spec : Spec.t) ->
      let name = spec.Spec.name in
      let r, _ =
        timed_op o (fun () ->
            let vf =
              span ("summary.vf." ^ name) (fun () ->
                  Vf.generate prog seg_of (Spec.vf_spec spec))
            in
            span ("engine." ^ name) (fun () ->
                Engine.run ~resilience ?pool ~vf prog ~seg_of ~rv spec))
      in
      Option.iter
        (fun (reports, stats) ->
          let n =
            record o ~truth:s.truth
              ~line_of:(fun r -> r.Report.source_loc.Stmt.line)
              spec reports
          in
          add_engine_stats stats n)
        r)
    Checkers.all

let batch_traced ?pool ~trace_out subjects =
  Obs.set_level Obs.Metrics_only;
  let o = outcome () in
  trace_origin := now ();
  let t0 = now () in
  span "run" (fun () ->
      List.iter
        (fun s -> span ("subject " ^ s.name) (fun () -> batch_staged ?pool o s))
        subjects);
  let wall = now () -. t0 in
  let self = self_times () in
  let self_of n = Option.value ~default:0.0 (Hashtbl.find_opt self n) in
  let set n v = Hashtbl.replace layer n v in
  set "frontend.parse_s" (self_of "frontend.parse");
  set "frontend.lower_s" (self_of "frontend.lower");
  set "transform.run_s" (self_of "transform");
  set "seg.build_s" (self_of "seg");
  set "summary.rv_s" (self_of "summary.rv");
  let vf = ref 0.0 and eng = ref 0.0 in
  List.iter
    (fun c ->
      set ("summary.vf_s." ^ c) (self_of ("summary.vf." ^ c));
      vf := !vf +. self_of ("summary.vf." ^ c);
      eng := !eng +. self_of ("engine." ^ c))
    checker_names;
  set "summary.vf_s" !vf;
  set "engine.run_s" !eng;
  let unattributed =
    self_of "run"
    +. List.fold_left (fun a s -> a +. self_of ("subject " ^ s.name)) 0.0 subjects
  in
  set "unattributed_s" unattributed;
  let loc = float_of_int (max 1 (List.fold_left (fun a s -> a + s.loc) 0 subjects)) in
  List.iter
    (fun l -> set (l ^ ".alloc_words_per_loc") (layer_value (l ^ ".alloc_words") /. loc))
    [ "frontend"; "transform"; "seg" ];
  finish_layers ?pool ();
  write_chrome_trace trace_out
    (List.map (fun n -> (n, layer_value n)) layer_names);
  (o, wall)

let batch_cmd dir ~traced ~jobs ~trace_out =
  let subjects = load_subjects dir in
  let loc = List.fold_left (fun a s -> a + s.loc) 0 subjects in
  let run pool =
    let fields =
      if traced then
        let o, wall = batch_traced ?pool ~trace_out subjects in
        outcome_fields o @ [ ("wall_s", Json.Float wall); ("layers", layers_json ()) ]
      else
        let o, setup, check = batch_untraced ?pool subjects in
        outcome_fields o
        @ [
            ("setup_s", Json.Float setup);
            ("check_s", Json.Float check);
            ("wall_s", Json.Float (setup +. check));
          ]
    in
    print_json
      (fields
      @ [
          ("loc", Json.Int loc);
          ("files", Json.Int (List.length subjects));
          ("jobs", Json.Int (match pool with Some p -> Pool.jobs p | None -> 1));
        ]
      @ common_fields ())
  in
  let jobs = Pool.effective_jobs jobs in
  if jobs <= 1 then run None else Pool.with_pool ~jobs (fun p -> run (Some p))

(* ------------------------------------------------------------------ *)
(* Serve legs *)

let serve_files dir sub =
  List.map (fun (name, _) -> (name, read_file (dir // sub // name))) (manifest dir)

let serve_line_of dir =
  let offsets = manifest dir in
  fun (r : Report.t) ->
    let l = r.Report.source_loc in
    match List.assoc_opt l.Stmt.file offsets with
    | Some off -> off + l.Stmt.line
    | None -> failwith ("report in an unknown file " ^ l.Stmt.file)

(* The server's request handling (Server.handle_check) through the public
   entry points of its layers: decode, Incr.update, Incr.check per
   checker, encode.  serve.codec_s is the request span's self time. *)
let serve_trace dir requests trace_out =
  Obs.set_level Obs.Metrics_only;
  let truth = load_truth (dir // "truth") in
  let line_of = serve_line_of dir in
  let init = serve_files dir "init" in
  let lines = read_lines requests in
  trace_origin := now ();
  let t0 = now () in
  let final = outcome () in
  let n_req = List.length lines in
  let lat = ref [] and n_cone = ref 0 and n_funcs = ref 0 in
  span "session" (fun () ->
      let st = span "serve.load" (fun () -> Incr.load init) in
      n_funcs := Incr.n_functions st;
      List.iteri
        (fun i line ->
          let last = i = n_req - 1 in
          let r0 = now () in
          span "serve.request" (fun () ->
              let req =
                match Json.parse line with
                | Ok j -> j
                | Error e -> failwith ("bad request line: " ^ e)
              in
              let files =
                match Option.bind (Json.member "files" req) Json.list_opt with
                | None -> []
                | Some l ->
                  List.filter_map
                    (fun f ->
                      match
                        ( Option.bind (Json.member "name" f) Json.string_opt,
                          Option.bind (Json.member "contents" f) Json.string_opt )
                      with
                      | Some n, Some c -> Some (n, c)
                      | _ -> None)
                    l
              in
              if files <> [] then begin
                let u = span "serve.update" (fun () -> Incr.update st files) in
                n_cone := !n_cone + u.Incr.dirty_cone
              end;
              let results =
                span "serve.check" (fun () ->
                    List.map
                      (fun spec ->
                        let reports, stats = Incr.check st spec in
                        (spec, reports, stats))
                      Checkers.all)
              in
              let rendered =
                List.map
                  (fun ((spec : Spec.t), reports, (stats : Engine.stats)) ->
                    let reported = List.filter Report.is_reported reports in
                    add_engine_stats stats (List.length reported);
                    if last then
                      ignore (record final ~truth ~line_of spec reports);
                    Json.Obj
                      [
                        ("checker", Json.String spec.Spec.name);
                        ( "reports",
                          Json.List
                            (List.map
                               (fun r -> Json.String (Report.one_line r))
                               reported) );
                      ])
                  results
              in
              ignore (Json.to_string (Json.Obj [ ("checkers", Json.List rendered) ])));
          lat := ((now () -. r0) *. 1000.0) :: !lat)
        lines);
  let wall = now () -. t0 in
  let self = self_times () in
  let self_of n = Option.value ~default:0.0 (Hashtbl.find_opt self n) in
  let total n =
    List.fold_left
      (fun a (s : span) -> if s.name = n then a +. (s.t1 -. s.t0) else a)
      0.0 !spans
  in
  let set n v = Hashtbl.replace layer n v in
  set "serve.load_s" (self_of "serve.load");
  set "serve.request_s" (total "serve.request");
  set "serve.update_s" (self_of "serve.update");
  set "serve.check_s" (self_of "serve.check");
  set "serve.codec_s" (self_of "serve.request");
  set "serve.dirty_cone" (float_of_int !n_cone /. float_of_int (max 1 n_req));
  let base = float_of_int (!n_funcs * n_req) in
  set "serve.reuse_base" base;
  set "serve.reuse_ratio"
    (if base > 0.0 then 1.0 -. (float_of_int !n_cone /. base) else 0.0);
  set "unattributed_s" (self_of "session");
  finish_layers ();
  write_chrome_trace trace_out (List.map (fun n -> (n, layer_value n)) layer_names);
  print_json
    (outcome_fields final
    @ [
        ("wall_s", Json.Float wall);
        ("req_ms", Json.List (List.rev_map (fun x -> Json.Float x) !lat));
        ("layers", layers_json ());
      ]
    @ common_fields ())

(* In-process batch check of the serve session's final file contents —
   the reference the server's final responses must equal. *)
let serve_batch dir files_dir =
  let truth = load_truth (dir // "truth") in
  let line_of = serve_line_of dir in
  let names = List.map fst (manifest dir) in
  let here = Sys.getcwd () in
  Sys.chdir files_dir;
  let a = Analysis.prepare_files names in
  Sys.chdir here;
  let o = outcome () in
  List.iter
    (fun (name, reports, _) ->
      match Checkers.by_name name with
      | Some spec -> ignore (record o ~truth ~line_of spec reports)
      | None -> ())
    (Analysis.check_all a Checkers.all);
  print_json (outcome_fields o @ common_fields ())

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let flag f = List.mem f args in
  let opt f default =
    let rec go = function
      | k :: v :: _ when k = f -> v
      | _ :: tl -> go tl
      | [] -> default
    in
    go args
  in
  drop_report := flag "--drop-report";
  match args with
  | [ "gen"; workload; seed; size; dir ] ->
    gen workload (int_of_string seed) (float_of_string size) dir
  | "batch" :: dir :: _ ->
    batch_cmd dir ~traced:(flag "--traced")
      ~jobs:(int_of_string (opt "--jobs" "1"))
      ~trace_out:(opt "--trace-out" (dir // "trace.json"))
  | [ "serve-trace"; dir; requests; trace_out ] -> serve_trace dir requests trace_out
  | "serve-batch" :: dir :: files_dir :: _ -> serve_batch dir files_dir
  | _ ->
    prerr_endline
      "usage: pb (gen WORKLOAD SEED SIZE DIR | batch DIR [--traced] [--jobs N] \
       [--trace-out F] [--drop-report] | serve-trace DIR REQUESTS TRACE_OUT | \
       serve-batch DIR FILES_DIR [--drop-report])";
    exit 2
