(* Resident analysis state with incremental re-analysis (DESIGN.md §4.13).

   The server keeps one subject loaded: source files, their parsed ASTs,
   the compiled (and transformed, in-place) program, the per-function
   SEG / RV tables and per-checker VF tables.  A request replaces some
   files; only the functions whose bodies actually changed — plus their
   transitive callers, whose summaries embed callee summaries — are
   re-lowered and re-analysed.

   Correctness of the partial rebuild rests on two facts:

   - the dirty set is closed under "is a transitive caller of a dirty
     function", so every call-graph SCC is wholly dirty or wholly clean,
     and the bottom-up reprocessing of dirty SCCs (with dirty table
     entries dropped first) sees exactly the state a from-scratch
     bottom-up run would see at that point;
   - per-function lowering is deterministic and clean functions keep
     their (already transformed) [Func.t] — their interfaces, SEGs and
     summaries are untouched and already equal the batch result.

   Structural changes — a function added, removed, re-ordered or moved
   to another file, its signature, unit or method group changed, a new
   file — invalidate call resolution everywhere; those fall back to a
   full rebuild of the resident state (counted in
   [update_stats.full_rebuild]). *)

open Pinpoint_frontend
module Obs = Pinpoint_obs.Obs
module Resilience = Pinpoint_util.Resilience
module Prog = Pinpoint_ir.Prog
module Func = Pinpoint_ir.Func
module Var = Pinpoint_ir.Var
module Seg = Pinpoint_seg.Seg
module Transform = Pinpoint_transform.Transform
module Rv = Pinpoint_summary.Rv
module Vf = Pinpoint_summary.Vf

(* One source file as last applied: its fdecls with one body digest
   each, and the digest of its part of the program's structure. *)
type file = {
  name : string;
  contents : string;
  fdecls : Ast.fdecl list;
  digests : (string * Digest.t) list;  (** (fname, body digest), same order *)
  shape : Digest.t;
      (** names + signatures + groups + units, in definition order *)
}

type state = {
  resilience : Resilience.log;
  pool : Pinpoint_par.Pool.t option;
  mutable files : file list;  (** load order *)
  mutable structure : Digest.t;  (** the files' shapes, in load order *)
  mutable sigs : (string, Pinpoint_frontend.Ty_sig.t) Hashtbl.t;
  mutable groups : (string, string list) Hashtbl.t;
      (** lowering tables; fixed by the structure *)
  mutable prog : Prog.t;
  mutable transform : Transform.result;
  mutable segs : (string, Seg.t) Hashtbl.t;
  mutable rv : Rv.t;
  vfs : (string, Pinpoint.Checker_spec.t * Vf.t) Hashtbl.t;
      (** resident per-checker VF tables, built a value-flow class at a
          time and maintained incrementally *)
  mutable callers : Pinpoint.Engine.callers option;
      (** the engine's reverse call index of [prog]: built on first use,
          dropped by a full rebuild, patched for the dirty cone *)
  sources :
    (string, Pinpoint.Checker_spec.t * Pinpoint.Engine.sources) Hashtbl.t;
      (** per-checker source sites per function; dirty entries dropped *)
  mutable epoch : int;  (** bumped once per applied update *)
  mutable n_updates : int;
  mutable n_full_rebuilds : int;
  mutable n_funcs_relowered : int;  (** cumulative dirty-cone size *)
}

type update_stats = {
  changed_files : int;
  changed_funcs : int;  (** functions whose body digest changed *)
  dirty_cone : int;     (** … plus transitive callers: re-analysed *)
  full_rebuild : bool;
}

let epoch st = st.epoch
let files st = List.map (fun f -> (f.name, f.contents)) st.files
let resilience st = st.resilience
let n_functions st = List.length (Prog.functions st.prog)
let program st = st.prog

let seg_of st = Hashtbl.find_opt st.segs

(* ---------- hashing ---------- *)

(* [Hashtbl.hash] samples a bounded number of nodes — useless as a change
   detector on ASTs.  Marshal the fdecl (plain data, no closures) and
   digest the bytes: any body, location or header change flips it. *)
let fdecl_digest (fd : Ast.fdecl) = Digest.string (Marshal.to_string fd [])

let shape_digest (fdecls : Ast.fdecl list) =
  Digest.string
    (Marshal.to_string
       (List.map
          (fun (fd : Ast.fdecl) ->
            ( fd.Ast.fname,
              List.map fst fd.Ast.params,
              fd.Ast.ret,
              fd.Ast.group,
              fd.Ast.unit_name ))
          fdecls)
       [])

(* Equal iff every file keeps its shape and no file is added: a function
   added, removed, moved or re-signed anywhere changes it. *)
let structure_digest files =
  Digest.string (String.concat "" (List.map (fun f -> f.shape) files))

let parse_file (name, contents) =
  let fdecls = (Parser.parse_string ~file:name contents).Ast.funcs in
  {
    name;
    contents;
    fdecls;
    digests =
      List.map (fun (fd : Ast.fdecl) -> (fd.Ast.fname, fdecl_digest fd)) fdecls;
    shape = shape_digest fdecls;
  }

let all_fdecls st = List.concat_map (fun f -> f.fdecls) st.files

(* ---------- full (re)build ---------- *)

(* Shares the batch pipeline verbatim (Analysis.prepare), with the
   server's long-lived incident log threaded through, so a freshly
   rebuilt state is the batch analysis of the current files by
   construction. *)
let full_build st =
  let program = { Ast.funcs = all_fdecls st } in
  let prog = Lower.compile program in
  let a =
    Pinpoint.Analysis.prepare ~resilience:st.resilience ?pool:st.pool prog
  in
  st.prog <- a.Pinpoint.Analysis.prog;
  st.transform <- a.Pinpoint.Analysis.transform;
  st.segs <- a.Pinpoint.Analysis.segs;
  st.rv <- a.Pinpoint.Analysis.rv;
  Hashtbl.reset st.vfs;
  st.callers <- None;
  Hashtbl.reset st.sources;
  st.sigs <- Lower.func_sigs program;
  st.groups <- Lower.method_groups program;
  st.structure <- structure_digest st.files

let load ?incident_cap ?pool (files : (string * string) list) : state =
  let resilience =
    match incident_cap with
    | Some c -> Resilience.create ~capacity:c ()
    | None -> Resilience.create ()
  in
  let st =
    {
      resilience;
      pool;
      files = List.map parse_file files;
      structure = Digest.string "";
      sigs = Hashtbl.create 0;
      groups = Hashtbl.create 0;
      prog = Prog.create ();
      transform = { Transform.ifaces = Hashtbl.create 0; ptas = Hashtbl.create 0 };
      segs = Hashtbl.create 0;
      rv = Rv.generate (Prog.create ()) (fun _ -> None);
      vfs = Hashtbl.create 8;
      callers = None;
      sources = Hashtbl.create 8;
      epoch = 0;
      n_updates = 0;
      n_full_rebuilds = 0;
      n_funcs_relowered = 0;
    }
  in
  full_build st;
  st

(* ---------- incremental update ---------- *)

let callers st =
  match st.callers with
  | Some c -> c
  | None ->
    let c = Pinpoint.Engine.callers st.prog in
    st.callers <- Some c;
    c

(* Transitive callers of the seed set, over the engine's reverse call
   index of the current program.  Clean functions' call edges are
   unchanged by definition (an edge changes only if the caller's body
   changed, which puts the caller in the seed), so the resident —
   transformed — program's index is the right one: the connector
   transformation rewrites call-site argument lists but never callee
   names. *)
let caller_closure st (seed : (string, unit) Hashtbl.t) :
    (string, unit) Hashtbl.t =
  let idx = callers st in
  let dirty = Hashtbl.copy seed in
  let q = Queue.create () in
  Hashtbl.iter (fun name () -> Queue.add name q) seed;
  while not (Queue.is_empty q) do
    List.iter
      (fun ((caller : Func.t), _) ->
        let name = caller.Func.fname in
        if not (Hashtbl.mem dirty name) then begin
          Hashtbl.replace dirty name ();
          Queue.add name q
        end)
      (Pinpoint.Engine.callers_of idx (Queue.pop q))
  done;
  dirty

let force_symbols_of (f : Func.t) =
  List.iter (fun v -> ignore (Var.symbol v)) f.Func.params;
  Func.iter_stmts f (fun _ s ->
      List.iter (fun v -> ignore (Var.symbol v)) (Pinpoint_ir.Stmt.def s);
      List.iter (fun v -> ignore (Var.symbol v)) (Pinpoint_ir.Stmt.uses s))

(* The request's files spliced into load order (unknown names append),
   each paired with the resident copy it replaces.  A file whose
   contents are byte-equal to the resident copy is kept, not parsed. *)
let splice st (changed : (string * string) list) =
  let replaced =
    List.map
      (fun f ->
        match List.assoc_opt f.name changed with
        | Some c when not (String.equal c f.contents) ->
          (parse_file (f.name, c), Some f)
        | _ -> (f, None))
      st.files
  in
  let fresh =
    List.filter_map
      (fun (n, c) ->
        if List.exists (fun f -> f.name = n) st.files then None
        else Some (parse_file (n, c), None))
      changed
  in
  replaced @ fresh

(* Apply one request's file set.  Parsing and re-lowering happen before
   any state is mutated, so a front-end error (raised to the caller)
   leaves the resident state untouched and the next request unaffected. *)
let update_impl (st : state) (changed : (string * string) list) : update_stats
    =
  let spliced = splice st changed in
  let files = List.map fst spliced in
  let structure = structure_digest files in
  st.n_updates <- st.n_updates + 1;
  if not (Digest.equal structure st.structure) then begin
    (* Function set / signatures / order changed: call resolution may
       shift anywhere — rebuild the resident state from scratch. *)
    st.files <- files;
    full_build st;
    st.epoch <- st.epoch + 1;
    st.n_full_rebuilds <- st.n_full_rebuilds + 1;
    {
      changed_files = List.length changed;
      changed_funcs = -1;
      dirty_cone = n_functions st;
      full_rebuild = true;
    }
  end
  else begin
    (* Same structure: every re-parsed file declares the same functions
       in the same order as the copy it replaces. *)
    let seed = Hashtbl.create 16 in
    List.iter
      (fun (f, old) ->
        Option.iter
          (fun old ->
            List.iter2
              (fun (name, d) (_, d0) ->
                if not (Digest.equal d d0) then Hashtbl.replace seed name ())
              f.digests old.digests)
          old)
      spliced;
    let changed_funcs = Hashtbl.length seed in
    if changed_funcs = 0 then begin
      st.files <- files;
      st.epoch <- st.epoch + 1;
      {
        changed_files = List.length changed;
        changed_funcs = 0;
        dirty_cone = 0;
        full_rebuild = false;
      }
    end
    else begin
      let dirty_tbl = caller_closure st seed in
      let dirty name = Hashtbl.mem dirty_tbl name in
      (* Re-lower every dirty function from its fresh AST first — still
         pure w.r.t. resident state. *)
      let lowered = Hashtbl.create 16 in
      List.iter
        (fun f ->
          List.iter
            (fun (fd : Ast.fdecl) ->
              if dirty fd.Ast.fname then
                Hashtbl.replace lowered fd.Ast.fname
                  (Lower.lower_fdecl ~groups:st.groups st.sigs fd))
            f.fdecls)
        files;
      (* Mutation phase: splice the fresh functions into the program … *)
      st.files <- files;
      let stale = ref [] in
      Prog.replace_functions st.prog (fun (f : Func.t) ->
          match Hashtbl.find_opt lowered f.Func.fname with
          | Some f' ->
            stale := f :: !stale;
            f'
          | None -> f);
      (* … drop their SEGs and source lists (the updates below drop
         their own table entries) … *)
      Hashtbl.iter
        (fun name () ->
          Hashtbl.remove st.segs name;
          Hashtbl.iter (fun _ (_, tbl) -> Hashtbl.remove tbl name) st.sources)
        dirty_tbl;
      (* … and reprocess the dirty SCCs bottom-up against the retained
         clean tables, mirroring the batch phase order. *)
      Transform.update ~resilience:st.resilience ?pool:st.pool st.transform
        st.prog ~dirty;
      let dirty_funcs =
        List.filter (fun (f : Func.t) -> dirty f.Func.fname)
          (Prog.functions st.prog)
      in
      Pinpoint.Engine.patch_callers (callers st) st.prog ~stale:!stale
        ~fresh:dirty_funcs;
      List.iter force_symbols_of dirty_funcs;
      Seg.reserve_addresses dirty_funcs;
      Pinpoint.Analysis.build_segs ?pool:st.pool st.resilience
        st.transform.Transform.ptas (Array.of_list dirty_funcs) st.segs;
      Rv.update ~resilience:st.resilience st.rv st.prog ~dirty;
      let seg_of = seg_of st in
      (* A crash while refreshing the resident VF tables drops them; the
         next check regenerates them (or the engine degrades to
         no-VF-pruning) instead of serving stale ones. *)
      let resident = Hashtbl.fold (fun _ e acc -> e :: acc) st.vfs [] in
      let ok =
        Resilience.protect ~log:st.resilience ~phase:Resilience.Vf_summary
          ~subject:"resident"
          ~fallback_note:"resident VF tables dropped, regenerated on demand"
          ~fallback:false
          (fun () ->
            Vf.update_all st.prog seg_of
              (List.map
                 (fun (spec, vf) -> (Pinpoint.Checker_spec.vf_spec spec, vf))
                 resident)
              ~dirty;
            true)
      in
      if not ok then Hashtbl.reset st.vfs;
      st.epoch <- st.epoch + 1;
      let cone = Hashtbl.length dirty_tbl in
      st.n_funcs_relowered <- st.n_funcs_relowered + cone;
      {
        changed_files = List.length changed;
        changed_funcs;
        dirty_cone = cone;
        full_rebuild = false;
      }
    end
  end

(* Span wrapper: the update lands on the per-request trace slice (the
   server dispatches inside [Obs.with_request]) with its input size as
   an attribute; the cone size only exists afterwards, so the server
   reports it via the [server.dirty_cone] histogram instead. *)
let update (st : state) (changed : (string * string) list) : update_stats =
  Obs.span "incr.update"
    ~attrs:[ ("files", string_of_int (List.length changed)) ]
    (fun () -> update_impl st changed)

(* ---------- checking ---------- *)

let resident_vf st (spec : Pinpoint.Checker_spec.t) =
  match Hashtbl.find_opt st.vfs spec.Pinpoint.Checker_spec.name with
  | Some (s, vf) when s == spec -> Some vf
  | _ -> None

(* A missing table is built with the rest of its value-flow class, as
   {!Pinpoint.Analysis.check} does. *)
let check_impl ?config (st : state) (spec : Pinpoint.Checker_spec.t) :
    Pinpoint.Report.t list * Pinpoint.Engine.stats =
  let seg_of = seg_of st in
  let vf =
    match resident_vf st spec with
    | Some _ as r -> r
    | None ->
      let specs =
        spec
        :: List.filter
             (fun c -> resident_vf st c = None)
             (Pinpoint.Checkers.class_mates spec)
      in
      let tables =
        Resilience.protect ~log:st.resilience ~phase:Resilience.Vf_summary
          ~subject:spec.Pinpoint.Checker_spec.name
          ~fallback_note:"engine runs without VF pruning" ~fallback:None
          (fun () ->
            Some
              (Vf.generate_all st.prog seg_of
                 (List.map Pinpoint.Checker_spec.vf_spec specs)))
      in
      Option.iter
        (List.iter2
           (fun (s : Pinpoint.Checker_spec.t) vf ->
             Hashtbl.replace st.vfs s.Pinpoint.Checker_spec.name (s, vf))
           specs)
        tables;
      resident_vf st spec
  in
  let sources =
    match Hashtbl.find_opt st.sources spec.Pinpoint.Checker_spec.name with
    | Some (s, tbl) when s == spec -> tbl
    | _ ->
      let tbl = Hashtbl.create 64 in
      Hashtbl.replace st.sources spec.Pinpoint.Checker_spec.name (spec, tbl);
      tbl
  in
  Pinpoint.Engine.run ?config ~resilience:st.resilience ?pool:st.pool ?vf
    ~callers:(callers st) ~sources st.prog ~seg_of ~rv:st.rv spec

let check ?config (st : state) (spec : Pinpoint.Checker_spec.t) :
    Pinpoint.Report.t list * Pinpoint.Engine.stats =
  Obs.span "incr.check"
    ~attrs:[ ("checker", spec.Pinpoint.Checker_spec.name) ]
    (fun () -> check_impl ?config st spec)
