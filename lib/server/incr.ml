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

   Structural changes — a function added, removed, re-ordered, its
   signature, unit or method group changed — invalidate call resolution
   everywhere; those fall back to a full rebuild of the resident state
   (counted in [update_stats.full_rebuild]). *)

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
module Store = Pinpoint_store.Store
module Pool = Pinpoint_par.Pool
module Chunk = Pinpoint_par.Chunk

type state = {
  resilience : Resilience.log;
  pool : Pinpoint_par.Pool.t option;
  store : Store.t option;
      (** disk-resident artifact store: per-function PTAs, SEGs and RV
          summaries live here instead of the resident tables; never
          sealed while serving, so incremental updates keep appending *)
  mutable files : (string * string) list;  (** (name, contents), load order *)
  mutable file_fdecls : (string * Ast.fdecl list) list;  (** same order *)
  mutable digests : (string, Digest.t) Hashtbl.t;  (** fname -> body digest *)
  mutable structure : Digest.t;
      (** names + signatures + groups + units + definition order *)
  mutable prog : Prog.t;
  mutable transform : Transform.result;
  mutable segs : (string, Seg.t) Hashtbl.t;
  mutable rv : Rv.t;
  vfs : (string, Pinpoint.Checker_spec.t * Vf.t) Hashtbl.t;
      (** resident per-checker VF tables, built a value-flow class at a
          time and maintained incrementally *)
  mutable callers : Pinpoint.Engine.callers option;
      (** the engine's reverse call index of [prog]; dropped whenever
          [prog] changes, rebuilt by the next check *)
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
let files st = st.files
let resilience st = st.resilience
let n_functions st = List.length (Prog.functions st.prog)

let seg_of st =
  match st.store with
  | Some store -> Store.seg_of store
  | None -> Hashtbl.find_opt st.segs

(* ---------- hashing ---------- *)

(* [Hashtbl.hash] samples a bounded number of nodes — useless as a change
   detector on ASTs.  Marshal the fdecl (plain data, no closures) and
   digest the bytes: any body, location or header change flips it. *)
let fdecl_digest (fd : Ast.fdecl) = Digest.string (Marshal.to_string fd [])

let structure_digest (fdecls : Ast.fdecl list) =
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

let parse_file (name, contents) =
  (name, (Parser.parse_string ~file:name contents).Ast.funcs)

let all_fdecls st = List.concat_map snd st.file_fdecls

let digest_table fdecls =
  let t = Hashtbl.create 64 in
  List.iter
    (fun (fd : Ast.fdecl) -> Hashtbl.replace t fd.Ast.fname (fdecl_digest fd))
    fdecls;
  t

(* ---------- full (re)build ---------- *)

(* Shares the batch pipeline verbatim (Analysis.prepare), with the
   server's long-lived incident log threaded through, so a freshly
   rebuilt state is the batch analysis of the current files by
   construction. *)
let full_build st =
  let fdecls = all_fdecls st in
  let prog = Lower.compile { Ast.funcs = fdecls } in
  (* Store mode: the previous program's artifacts are stale (functions
     were re-lowered, so their variables are fresh objects) — drop them
     before the rebuild re-spills everything.  Dead blob bytes are not
     reclaimed; RSS shedding, not disk, is the server's bound. *)
  Option.iter
    (fun store ->
      List.iter
        (fun (f : Func.t) -> Store.remove_fn store f.Func.fname)
        (Prog.functions st.prog);
      Store.drop_resident store)
    st.store;
  let a =
    Pinpoint.Analysis.prepare ~resilience:st.resilience ?pool:st.pool
      ?store:st.store prog
  in
  st.prog <- a.Pinpoint.Analysis.prog;
  st.transform <- a.Pinpoint.Analysis.transform;
  st.segs <- a.Pinpoint.Analysis.segs;
  st.rv <- a.Pinpoint.Analysis.rv;
  Hashtbl.reset st.vfs;
  st.callers <- None;
  st.digests <- digest_table fdecls;
  st.structure <- structure_digest fdecls

let load ?incident_cap ?pool ?store (files : (string * string) list) : state =
  let resilience =
    match incident_cap with
    | Some c -> Resilience.create ~capacity:c ()
    | None -> Resilience.create ()
  in
  let file_fdecls = List.map parse_file files in
  let st =
    {
      resilience;
      pool;
      store;
      files;
      file_fdecls;
      digests = Hashtbl.create 64;
      structure = Digest.string "";
      prog = Prog.create ();
      transform = { Transform.ifaces = Hashtbl.create 0; ptas = Hashtbl.create 0 };
      segs = Hashtbl.create 0;
      rv = Rv.generate (Prog.create ()) (fun _ -> None);
      vfs = Hashtbl.create 8;
      callers = None;
      epoch = 0;
      n_updates = 0;
      n_full_rebuilds = 0;
      n_funcs_relowered = 0;
    }
  in
  full_build st;
  st

(* ---------- incremental update ---------- *)

(* Transitive callers of the seed set over the current call graph.  Clean
   functions' call edges are unchanged by definition (an edge changes only
   if the caller's body changed, which puts the caller in the seed), so
   the resident — transformed — program's graph is the right one: the
   connector transformation rewrites call-site argument lists but never
   callee names. *)
let caller_closure (prog : Prog.t) (seed : (string, unit) Hashtbl.t) :
    (string, unit) Hashtbl.t =
  let g, funcs = Prog.call_graph prog in
  let index = Hashtbl.create 64 in
  Array.iteri
    (fun i (f : Func.t) -> Hashtbl.replace index f.Func.fname i)
    funcs;
  let dirty = Hashtbl.copy seed in
  let q = Queue.create () in
  Hashtbl.iter
    (fun name () ->
      match Hashtbl.find_opt index name with
      | Some i -> Queue.add i q
      | None -> ())
    seed;
  while not (Queue.is_empty q) do
    let i = Queue.pop q in
    List.iter
      (fun caller ->
        let name = funcs.(caller).Func.fname in
        if not (Hashtbl.mem dirty name) then begin
          Hashtbl.replace dirty name ();
          Queue.add caller q
        end)
      (Pinpoint_util.Digraph.preds g i)
  done;
  dirty

let force_symbols_of (f : Func.t) =
  List.iter (fun v -> ignore (Var.symbol v)) f.Func.params;
  Func.iter_stmts f (fun _ s ->
      List.iter (fun v -> ignore (Var.symbol v)) (Pinpoint_ir.Stmt.def s);
      List.iter (fun v -> ignore (Var.symbol v)) (Pinpoint_ir.Stmt.uses s))

(* Apply one request's file set.  Parsing and re-lowering happen before
   any state is mutated, so a front-end error (raised to the caller)
   leaves the resident state untouched and the next request unaffected. *)
let update_impl (st : state) (changed : (string * string) list) : update_stats
    =
  let changed_parsed = List.map parse_file changed in
  (* Splice the new per-file ASTs into load order; unknown files append. *)
  let known = List.map fst st.files in
  let fresh =
    List.filter (fun (n, _) -> not (List.mem n known)) changed_parsed
  in
  let file_fdecls =
    List.map
      (fun (n, fds) ->
        match List.assoc_opt n changed_parsed with
        | Some fds' -> (n, fds')
        | None -> (n, fds))
      st.file_fdecls
    @ fresh
  in
  let files =
    List.map
      (fun (n, c) ->
        match List.assoc_opt n changed with Some c' -> (n, c') | None -> (n, c))
      st.files
    @ List.filter (fun (n, _) -> not (List.mem n known)) changed
  in
  let fdecls = List.concat_map snd file_fdecls in
  let structure = structure_digest fdecls in
  st.n_updates <- st.n_updates + 1;
  if not (Digest.equal structure st.structure) then begin
    (* Function set / signatures / order changed: call resolution may
       shift anywhere — rebuild the resident state from scratch. *)
    st.files <- files;
    st.file_fdecls <- file_fdecls;
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
    let digests = digest_table fdecls in
    let seed = Hashtbl.create 16 in
    Hashtbl.iter
      (fun name d ->
        match Hashtbl.find_opt st.digests name with
        | Some d0 when Digest.equal d d0 -> ()
        | _ -> Hashtbl.replace seed name ())
      digests;
    let changed_funcs = Hashtbl.length seed in
    if changed_funcs = 0 then begin
      st.files <- files;
      st.file_fdecls <- file_fdecls;
      st.epoch <- st.epoch + 1;
      {
        changed_files = List.length changed;
        changed_funcs = 0;
        dirty_cone = 0;
        full_rebuild = false;
      }
    end
    else begin
      let dirty_tbl = caller_closure st.prog seed in
      let dirty name = Hashtbl.mem dirty_tbl name in
      (* Re-lower every dirty function from its fresh AST first — still
         pure w.r.t. resident state. *)
      let sigs = Lower.func_sigs { Ast.funcs = fdecls } in
      let groups = Lower.method_groups { Ast.funcs = fdecls } in
      let lowered = Hashtbl.create 16 in
      List.iter
        (fun (fd : Ast.fdecl) ->
          if dirty fd.Ast.fname then
            Hashtbl.replace lowered fd.Ast.fname
              (Lower.lower_fdecl ~groups sigs fd))
        fdecls;
      (* Mutation phase: splice the fresh functions into the program … *)
      st.files <- files;
      st.file_fdecls <- file_fdecls;
      st.digests <- digests;
      st.callers <- None;
      Prog.replace_functions st.prog (fun (f : Func.t) ->
          Option.value (Hashtbl.find_opt lowered f.Func.fname) ~default:f);
      (* … drop their derived state … *)
      Hashtbl.iter
        (fun name () ->
          Transform.remove st.transform name;
          Hashtbl.remove st.segs name;
          Option.iter (fun store -> Store.remove_fn store name) st.store;
          Rv.remove st.rv name)
        dirty_tbl;
      (* … and reprocess the dirty SCCs bottom-up against the retained
         clean tables, mirroring the batch phase order.  Store mode: the
         dirty functions' fresh variables were registered by re-lowering;
         their PTAs stream back to the store and SEGs are spilled as
         rebuilt, just like batch prepare. *)
      (match st.store with
      | Some store ->
        List.iter
          (fun (f : Func.t) -> if dirty f.Func.fname then Store.register_fn store f)
          (Prog.functions st.prog);
        Transform.update ~resilience:st.resilience
          ~pta_sink:(Store.put_pta store) st.transform st.prog ~dirty
      | None ->
        Transform.update ~resilience:st.resilience ?pool:st.pool st.transform
          st.prog ~dirty);
      let dirty_funcs =
        List.filter (fun (f : Func.t) -> dirty f.Func.fname)
          (Prog.functions st.prog)
      in
      List.iter force_symbols_of dirty_funcs;
      Seg.reserve_addresses dirty_funcs;
      (* Rebuild the dirty SEGs, mirroring batch prepare: streaming in
         store mode (artifact puts are sequential), chunked over the pool
         otherwise — builds are per-function pure, the table writes below
         happen positionally on this thread, so results are identical at
         any [--jobs]. *)
      (match st.store with
      | Some store ->
        List.iter
          (fun (f : Func.t) ->
            match Store.pta_of store f.Func.fname with
            | Some pta -> (
              match Pinpoint.Analysis.build_seg st.resilience f pta with
              | Some seg -> Store.put_seg store f.Func.fname seg
              | None -> ())
            | None -> ())
          dirty_funcs
      | None ->
        let dirty_arr = Array.of_list dirty_funcs in
        let build (f : Func.t) =
          match Hashtbl.find_opt st.transform.Transform.ptas f.Func.fname with
          | Some pta -> Pinpoint.Analysis.build_seg st.resilience f pta
          | None -> None
        in
        let built =
          match st.pool with
          | Some p when Pool.jobs p > 1 ->
            let weights =
              Array.map
                (fun (f : Func.t) ->
                  let n = ref 0 in
                  Func.iter_blocks f (fun blk ->
                      n := !n + List.length blk.Func.stmts);
                  !n)
                dirty_arr
            in
            Chunk.parallel_map ~weights p build dirty_arr
          | _ -> Array.map (fun f -> Some (build f)) dirty_arr
        in
        Array.iteri
          (fun i r ->
            match r with
            | Some (Some seg) ->
              Hashtbl.replace st.segs dirty_arr.(i).Func.fname seg
            | _ -> ())
          built);
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
  let callers =
    match st.callers with
    | Some c -> c
    | None ->
      let c = Pinpoint.Engine.callers st.prog in
      st.callers <- Some c;
      c
  in
  Pinpoint.Engine.run ?config ~resilience:st.resilience ?pool:st.pool ?vf
    ~callers st.prog ~seg_of ~rv:st.rv spec

let check ?config (st : state) (spec : Pinpoint.Checker_spec.t) :
    Pinpoint.Report.t list * Pinpoint.Engine.stats =
  Obs.span "incr.check"
    ~attrs:[ ("checker", spec.Pinpoint.Checker_spec.name) ]
    (fun () -> check_impl ?config st spec)
