(* Tests for RV and VF summaries (paper §3.3.2). *)

open Pinpoint_ir
module Rv = Pinpoint_summary.Rv
module Vf = Pinpoint_summary.Vf
module Clone = Pinpoint_summary.Clone
module Seg = Pinpoint_seg.Seg
module E = Pinpoint_smt.Expr
module Sym = Pinpoint_smt.Symbol

let setup src =
  let a = Helpers.prepare src in
  (a, a.Pinpoint.Analysis.rv)

let test_rv_identity () =
  let a, rv = setup "int id(int x) { return x; }  void top() { int y = id(3); print(y); }" in
  ignore a;
  match Rv.find rv "id" with
  | Some [| Some entry |] ->
    (* the constraint relates the returned vertex to x and x is in P *)
    Alcotest.(check int) "depends on one param" 1 (Var.Set.cardinal entry.Rv.params);
    Alcotest.(check bool) "nontrivial constraint" true (not (E.is_true entry.Rv.closed))
  | _ -> Alcotest.fail "missing summary"

let test_rv_constant () =
  let _, rv = setup "int k() { return 42; }" in
  match Rv.find rv "k" with
  | Some [| Some entry |] ->
    Alcotest.(check bool) "no params" true (Var.Set.is_empty entry.Rv.params)
  | _ -> Alcotest.fail "missing summary"

let test_rv_closing_through_callee () =
  (* g calls k; g's summary must be closed (k's range inlined, cloned) *)
  let _, rv =
    setup "int k() { return 7; }  int g() { int v = k(); return v + 1; }"
  in
  match Rv.find rv "g" with
  | Some [| Some entry |] ->
    (* fully closed: no parameters, and the formula pins the value chain *)
    Alcotest.(check bool) "closed" true (Var.Set.is_empty entry.Rv.params);
    Alcotest.(check bool) "has content" true (E.size entry.Rv.closed > 1)
  | _ -> Alcotest.fail "missing summary"

let test_clone_distinct () =
  let f1 = Clone.create "site1" and f2 = Clone.create "site2" in
  let s = Sym.fresh "cv" Sym.Int in
  let e = E.var s in
  let c1 = Clone.subst f1 e and c2 = Clone.subst f2 e in
  Alcotest.(check bool) "different clones" false (E.equal c1 c2);
  (* within a frame the clone is stable *)
  Alcotest.(check bool) "stable" true (E.equal c1 (Clone.subst f1 e))

let test_clone_binding () =
  let f = Clone.create "b" in
  let s = Sym.fresh "bv" Sym.Int in
  Clone.bind f s (E.int 9);
  Alcotest.(check bool) "bound" true (E.equal (Clone.subst f (E.var s)) (E.int 9))

(* --- VF summaries --- *)

let vf_of src spec =
  let a = Helpers.prepare src in
  let prog = a.Pinpoint.Analysis.prog in
  (Vf.generate prog (Pinpoint.Analysis.seg_of a) (Pinpoint.Checker_spec.vf_spec spec), a)

let test_vf1_passthrough () =
  let vf, _ = vf_of "int* pass(int *p) { return p; }" Helpers.uaf in
  match Vf.find vf "pass" with
  | Some s -> Alcotest.(check bool) "param flows to ret" true (List.mem (1, 0) s.Vf.vf1)
  | None -> Alcotest.fail "no summary"

let test_vf3_free_param () =
  let vf, _ = vf_of "void rel(int *p) { free(p); }" Helpers.uaf in
  match Vf.find vf "rel" with
  | Some s ->
    Alcotest.(check (list int)) "vf3" [ 1 ] s.Vf.vf3;
    Alcotest.(check (list int)) "no vf4 (free is not a deref)" [] s.Vf.vf4
  | None -> Alcotest.fail "no summary"

let test_vf4_deref_param () =
  let vf, _ = vf_of "void use(int *p) { print(*p); }" Helpers.uaf in
  match Vf.find vf "use" with
  | Some s -> Alcotest.(check (list int)) "vf4" [ 1 ] s.Vf.vf4
  | None -> Alcotest.fail "no summary"

let test_vf2_freed_return () =
  let vf, _ =
    vf_of "int* mk() { int *p = malloc(); free(p); return p; }" Helpers.uaf
  in
  match Vf.find vf "mk" with
  | Some s -> Alcotest.(check (list int)) "vf2" [ 0 ] s.Vf.vf2
  | None -> Alcotest.fail "no summary"

let test_vf_transitive () =
  (* wrapper around a freeing callee inherits vf3; wrapper around a
     dereffing callee inherits vf4 *)
  let vf, _ =
    vf_of
      "void rel(int *p) { free(p); } void rel2(int *p) { rel(p); } void use(int *p) { print(*p); } void use2(int *p) { use(p); }"
      Helpers.uaf
  in
  (match Vf.find vf "rel2" with
  | Some s -> Alcotest.(check (list int)) "vf3 inherited" [ 1 ] s.Vf.vf3
  | None -> Alcotest.fail "no rel2");
  match Vf.find vf "use2" with
  | Some s -> Alcotest.(check (list int)) "vf4 inherited" [ 1 ] s.Vf.vf4
  | None -> Alcotest.fail "no use2"

let test_vf_operand_mode () =
  (* taint flows through arithmetic only when follow_operands is set *)
  let src = "int mix(int d) { int e = d + 1; return e; }" in
  let vf_taint, _ = vf_of src Helpers.taint_path in
  let vf_uaf, _ = vf_of src Helpers.uaf in
  (match Vf.find vf_taint "mix" with
  | Some s -> Alcotest.(check bool) "taint flows" true (List.mem (1, 0) s.Vf.vf1)
  | None -> Alcotest.fail "no taint summary");
  match Vf.find vf_uaf "mix" with
  | Some s ->
    Alcotest.(check bool) "pointer value does not survive +" false
      (List.mem (1, 0) s.Vf.vf1)
  | None -> Alcotest.fail "no uaf summary"

let test_vf_connector_riding () =
  (* value flow through memory side effects rides the connectors: storing
     the parameter into *q makes it reach the extended return *)
  let vf, _ = vf_of "void put(int **q, int *v) { *q = v; }" Helpers.uaf in
  match Vf.find vf "put" with
  | Some s ->
    Alcotest.(check bool) "v reaches the aux return" true
      (List.exists (fun (i, _) -> i = 2) s.Vf.vf1)
  | None -> Alcotest.fail "no summary"

(* --- shared VF pass vs the per-checker oracle --- *)

module Analysis = Pinpoint.Analysis

let checkers = Pinpoint.Checkers.all
let vf_specs = List.map Pinpoint.Checker_spec.vf_spec checkers
let vf_entries vf =
  List.sort compare (Vf.fold vf ~init:[] ~f:(fun acc n s -> (n, s) :: acc))

(* Transitive callers of [seed], [seed] included: the caller-closed dirty
   sets {!Vf.update_all} requires. *)
let caller_closure prog seed =
  let g, funcs = Prog.call_graph prog in
  let dirty = Array.make (Array.length funcs) false in
  let rec mark i =
    if not dirty.(i) then begin
      dirty.(i) <- true;
      List.iter mark (Pinpoint_util.Digraph.preds g i)
    end
  in
  Array.iteri (fun i (f : Func.t) -> if seed f.Func.fname then mark i) funcs;
  let names = Hashtbl.create 16 in
  Array.iteri
    (fun i (f : Func.t) ->
      if dirty.(i) then Hashtbl.replace names f.Func.fname ())
    funcs;
  Hashtbl.mem names

(* Every checker's shared-pass table equals its oracle table, from
   scratch and after [update_all] recomputes a random caller-closed
   dirty set whose entries were first overwritten with junk. *)
let check_tables ~label ~seed (a : Analysis.t) =
  let prog = a.Analysis.prog and seg_of = Analysis.seg_of a in
  let oracle =
    List.map
      (fun spec ->
        vf_entries (Vf_oracle.to_vf (Vf_oracle.generate prog seg_of spec)))
      vf_specs
  in
  let shared = Vf.generate_all prog seg_of vf_specs in
  let compare_all what =
    List.iter2
      (fun (c : Pinpoint.Checker_spec.t) (want, got) ->
        if want <> vf_entries got then
          Alcotest.failf "%s: %s table differs (%s)" label
            c.Pinpoint.Checker_spec.name what)
      checkers (List.combine oracle shared)
  in
  compare_all "generate_all";
  let rng = Random.State.make [| seed |] in
  let dirty = caller_closure prog (fun _ -> Random.State.int rng 4 = 0) in
  let junk = { Vf.vf1 = [ (9, 9) ]; vf2 = [ 9 ]; vf3 = [ 9 ]; vf4 = [ 9 ] } in
  List.iter
    (fun vf ->
      List.iter
        (fun (f : Func.t) ->
          if dirty f.Func.fname then Vf.add vf f.Func.fname junk)
        (Prog.functions prog))
    shared;
  Vf.update_all prog seg_of (List.combine vf_specs shared) ~dirty;
  compare_all "update_all"

let render rs =
  List.map
    (fun r -> (Pinpoint.Report.one_line r, Pinpoint.Report.is_reported r))
    rs

(* [Analysis.check] (shared pass, cached caller index) reports exactly
   what [Engine.run] reports with the checker's own oracle table. *)
let check_reports ~label (a : Analysis.t) =
  List.iter
    (fun (c : Pinpoint.Checker_spec.t) ->
      let got, _ = Analysis.check a c in
      let vf =
        Vf_oracle.to_vf
          (Vf_oracle.generate a.Analysis.prog (Analysis.seg_of a)
             (Pinpoint.Checker_spec.vf_spec c))
      in
      let want, _ =
        Pinpoint.Engine.run ?pool:a.Analysis.pool ~vf a.Analysis.prog
          ~seg_of:(Analysis.seg_of a) ~rv:a.Analysis.rv c
      in
      if render want <> render got then
        Alcotest.failf "%s: %s reports differ" label
          c.Pinpoint.Checker_spec.name)
    checkers

let differential ~label ~seed src =
  Test_corpus.with_test_pool @@ fun pool ->
  let a = Analysis.prepare_source ?pool ~file:label src in
  check_tables ~label ~seed a;
  check_reports ~label a;
  let store = Pinpoint_store.Store.create ~dir:(Test_store.tmp_dir ()) () in
  Fun.protect ~finally:(fun () -> Pinpoint_store.Store.close store) @@ fun () ->
  check_reports ~label:(label ^ " (store)")
    (Analysis.prepare_source ?pool ~store ~file:label src)

let test_shared_vf_corpus () =
  let dir = Test_corpus.corpus_dir () in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".mc")
  |> List.sort compare
  |> List.iteri (fun i f ->
         let path = Filename.concat dir f in
         differential ~label:f ~seed:i
           (In_channel.with_open_bin path In_channel.input_all))

let test_shared_vf_subjects () =
  List.filteri (fun i _ -> i < 3)
    (List.sort
       (fun (a : Pinpoint_workload.Subjects.info) b ->
         compare a.paper_kloc b.paper_kloc)
       Pinpoint_workload.Subjects.all)
  |> List.iteri (fun i (info : Pinpoint_workload.Subjects.info) ->
         let s = Pinpoint_workload.Subjects.generate info in
         differential ~label:info.name ~seed:i s.Pinpoint_workload.Gen.source)

let test_shared_vf_generated =
  Helpers.qtest ~count:12 "shared VF pass = per-checker oracle (Gen)"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let s =
        Pinpoint_workload.Gen.generate ~name:"vfdiff.mc"
          { Pinpoint_workload.Gen.default_params with seed; target_loc = 300 }
      in
      differential ~label:(Printf.sprintf "gen seed %d" seed) ~seed
        s.Pinpoint_workload.Gen.source;
      true)

let suite =
  [
    Alcotest.test_case "rv: identity" `Quick test_rv_identity;
    Alcotest.test_case "rv: constant" `Quick test_rv_constant;
    Alcotest.test_case "rv: closed through callee" `Quick test_rv_closing_through_callee;
    Alcotest.test_case "clone: distinct per site" `Quick test_clone_distinct;
    Alcotest.test_case "clone: binding" `Quick test_clone_binding;
    Alcotest.test_case "vf1: passthrough" `Quick test_vf1_passthrough;
    Alcotest.test_case "vf3: frees its param" `Quick test_vf3_free_param;
    Alcotest.test_case "vf4: derefs its param" `Quick test_vf4_deref_param;
    Alcotest.test_case "vf2: returns freed" `Quick test_vf2_freed_return;
    Alcotest.test_case "vf: transitive" `Quick test_vf_transitive;
    Alcotest.test_case "vf: operand mode" `Quick test_vf_operand_mode;
    Alcotest.test_case "vf: connector riding" `Quick test_vf_connector_riding;
    Alcotest.test_case "shared vf = oracle (corpus)" `Quick test_shared_vf_corpus;
    Alcotest.test_case "shared vf = oracle (subjects)" `Quick test_shared_vf_subjects;
    test_shared_vf_generated;
  ]
