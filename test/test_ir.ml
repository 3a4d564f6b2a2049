(* Tests for the IR layer: SSA, gating, control dependence, reachability,
   call graphs. *)

open Pinpoint_ir
module E = Pinpoint_smt.Expr

let test_ssa_single_def () =
  let prog =
    Helpers.compile
      "int f(int a) { int x = 1; x = x + 1; x = x + a; if (a > 0) { x = 0; } return x; }"
  in
  let f = Helpers.func prog "f" in
  Alcotest.(check bool) "ssa" true (Ssa.is_ssa f);
  (* at least one phi after the if-merge *)
  let phis =
    Func.fold_stmts f ~init:0 ~f:(fun n _ s ->
        match s.Stmt.kind with Stmt.Phi _ -> n + 1 | _ -> n)
  in
  Alcotest.(check bool) "has phi" true (phis >= 1)

let test_ssa_uses_dominated () =
  let prog =
    Helpers.compile
      "int f(int a) { int r = 0; if (a > 0) { r = 1; } else { if (a < -5) { r = 2; } } return r + 1; }"
  in
  let f = Helpers.func prog "f" in
  let defs = Func.def_table f in
  let g = Func.cfg f in
  let dom = Pinpoint_util.Digraph.dominators g f.Func.entry in
  let b_of = Func.block_of_stmt f in
  Func.iter_stmts f (fun blk s ->
      List.iter
        (fun v ->
          match Var.Tbl.find_opt defs v with
          | None -> () (* parameter or undef *)
          | Some def_stmt -> (
            match Hashtbl.find_opt b_of def_stmt.Stmt.sid with
            | Some db ->
              if db <> blk.Func.bid then
                Alcotest.(check bool)
                  (Printf.sprintf "def of %s dominates use" v.Var.name)
                  true
                  (Pinpoint_util.Digraph.dominates dom db blk.Func.bid)
            | None -> ()))
        (* φ-argument uses are on edges, skip them *)
        (match s.Stmt.kind with Stmt.Phi _ -> [] | _ -> Stmt.uses s))

let test_gating_exclusive () =
  let prog =
    Helpers.compile
      "int f(int a) { int r = 0; if (a > 0) { r = 1; } else { r = 2; } return r; }"
  in
  let f = Helpers.func prog "f" in
  Func.iter_stmts f (fun _ s ->
      match s.Stmt.kind with
      | Stmt.Phi (_, args) ->
        let gates = List.filter_map (fun a -> a.Stmt.gate) args in
        Alcotest.(check int) "two gates" 2 (List.length gates);
        (* gates must be mutually exclusive and complete *)
        let g1 = List.nth gates 0 and g2 = List.nth gates 1 in
        Alcotest.(check bool) "exclusive" true (E.is_false (E.and_ g1 g2));
        Alcotest.(check bool) "complete" true (E.is_true (E.or_ g1 g2))
      | _ -> ())

let test_reaching_conditions () =
  let prog =
    Helpers.compile "int f(int a) { int r = 0; if (a > 0) { r = 1; } return r; }"
  in
  let f = Helpers.func prog "f" in
  let rc = Gating.reaching_conditions f ~root:f.Func.entry in
  Alcotest.(check bool) "entry true" true (E.is_true rc.(f.Func.entry));
  (* the exit is always reachable *)
  Alcotest.(check bool) "exit true" true (E.is_true rc.(f.Func.exit_))

let test_cdg () =
  let prog =
    Helpers.compile
      "void f(int a) { if (a > 0) { print(1); if (a > 5) { print(2); } } }"
  in
  let f = Helpers.func prog "f" in
  let cdg = Cdg.compute f in
  (* the block containing print(2) is directly controlled by a>5's block *)
  let b_of = Func.block_of_stmt f in
  let print2_block = ref (-1) and inner_branch_count = ref 0 in
  Func.iter_stmts f (fun _ s ->
      match s.Stmt.kind with
      | Stmt.Call c when c.Stmt.callee = "print" -> (
        match c.Stmt.args with
        | [ Stmt.Oint 2 ] ->
          print2_block := Option.value (Hashtbl.find_opt b_of s.Stmt.sid) ~default:(-1)
        | _ -> ())
      | _ -> ());
  Alcotest.(check bool) "found block" true (!print2_block >= 0);
  let deps = Cdg.deps_of_block cdg !print2_block in
  Alcotest.(check int) "one direct dep" 1 (List.length deps);
  List.iter
    (fun (d : Cdg.dep) ->
      Alcotest.(check bool) "positive polarity" true d.Cdg.polarity;
      incr inner_branch_count)
    deps;
  (* entry block has no control deps *)
  Alcotest.(check int) "entry free" 0
    (List.length (Cdg.deps_of_block cdg f.Func.entry))

let test_reaches () =
  let prog =
    Helpers.compile
      "void f(int a) { print(1); if (a > 0) { print(2); } else { print(3); } print(4); }"
  in
  let f = Helpers.func prog "f" in
  let sid_of_print n =
    Func.fold_stmts f ~init:(-1) ~f:(fun acc _ s ->
        match s.Stmt.kind with
        | Stmt.Call c when c.Stmt.callee = "print" && c.Stmt.args = [ Stmt.Oint n ] ->
          s.Stmt.sid
        | _ -> acc)
  in
  let p1 = sid_of_print 1 and p2 = sid_of_print 2 and p3 = sid_of_print 3 and p4 = sid_of_print 4 in
  Alcotest.(check bool) "1 reaches 2" true (Func.reaches f p1 p2);
  Alcotest.(check bool) "2 reaches 4" true (Func.reaches f p2 p4);
  Alcotest.(check bool) "2 not reaches 3" false (Func.reaches f p2 p3);
  Alcotest.(check bool) "4 not reaches 1" false (Func.reaches f p4 p1);
  Alcotest.(check bool) "same stmt reaches itself" true (Func.reaches f p1 p1)

let test_call_graph () =
  let prog =
    Helpers.compile
      "void a() { } void b() { a(); } void c() { b(); a(); input(); }"
  in
  let g, funcs = Prog.call_graph prog in
  Alcotest.(check int) "three nodes" 3 (Array.length funcs);
  Alcotest.(check int) "three edges" 3 (Pinpoint_util.Digraph.n_edges g)

let test_bottom_up_order () =
  let prog =
    Helpers.compile "void a() { } void b() { a(); } void c() { b(); }"
  in
  let sccs = Prog.bottom_up_sccs prog in
  let order = List.concat_map (List.map (fun f -> f.Func.fname)) sccs in
  Alcotest.(check (list string)) "callees first" [ "a"; "b"; "c" ] order

let test_recursion_scc () =
  let prog =
    Helpers.compile
      "void even(int n) { if (n > 0) { odd(n - 1); } } void odd(int n) { if (n > 0) { even(n - 1); } }"
  in
  let sccs = Prog.bottom_up_sccs prog in
  Alcotest.(check int) "one scc" 1 (List.length sccs);
  Alcotest.(check int) "two members" 2 (List.length (List.hd sccs))

(* ---------- cone-local SCC order ---------- *)

(* The caller-closure of [seed] (definition indices) over [prog]'s call
   graph, as a membership test on function names. *)
let caller_closed prog seed =
  let g, funcs = Prog.call_graph prog in
  let inside = Array.make (Array.length funcs) false in
  let rec close i =
    if not inside.(i) then begin
      inside.(i) <- true;
      List.iter close (Pinpoint_util.Digraph.preds g i)
    end
  in
  List.iter close seed;
  let names = Hashtbl.create 16 in
  Array.iteri
    (fun i (f : Func.t) -> if inside.(i) then Hashtbl.replace names f.Func.fname ())
    funcs;
  Hashtbl.mem names

let scc_names = List.map (List.map (fun (f : Func.t) -> f.Func.fname))

(* [cone_sccs] is the whole-program SCC list filtered to the set, with
   the same component and member order. *)
let cone_is_restriction prog picks =
  let n = List.length (Prog.functions prog) in
  n = 0
  ||
  let mem = caller_closed prog (List.map (fun k -> k mod n) picks) in
  let filtered =
    List.filter_map
      (fun scc ->
        match List.filter (fun (f : Func.t) -> mem f.Func.fname) scc with
        | [] -> None
        | l -> Some l)
      (Prog.bottom_up_sccs prog)
  in
  scc_names (Prog.cone_sccs prog ~mem) = scc_names filtered

let test_cone_sccs_gen =
  Helpers.qtest ~count:25 "cone sccs (Gen programs)"
    QCheck.(pair (int_range 1 10_000) (small_list small_nat))
    (fun (seed, picks) ->
      let src =
        (Pinpoint_workload.Gen.generate ~name:"cone"
           {
             Pinpoint_workload.Gen.default_params with
             Pinpoint_workload.Gen.seed;
             target_loc = 300;
           })
          .Pinpoint_workload.Gen.source
      in
      cone_is_restriction (Helpers.compile src) picks)

(* Random call graphs with self-loops and cycles: function [i] calls the
   listed functions (indices taken modulo the function count). *)
let test_cone_sccs_cyclic =
  Helpers.qtest ~count:300 "cone sccs (cyclic graphs)"
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 12) (small_list (int_bound 11)))
        (small_list small_nat))
    (fun (calls, picks) ->
      let n = List.length calls in
      let src =
        String.concat " "
          (List.mapi
             (fun i callees ->
               Printf.sprintf "void f%d() { %s }" i
                 (String.concat " "
                    (List.map (fun j -> Printf.sprintf "f%d();" (j mod n)) callees)))
             calls)
      in
      cone_is_restriction (Helpers.compile src) picks)

let test_validate_catches () =
  let f = Func.create "bad" ~params:[] ~ret_ty:None in
  Func.set_term f 0 (Func.Jump 99);
  (match Func.validate f with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "bad target accepted")

let test_prog_units () =
  let prog =
    Helpers.compile "unit \"core\"; void a() { } unit \"net\"; void b() { }"
  in
  Alcotest.(check string) "a in core" "core" (Prog.unit_name prog "a");
  Alcotest.(check string) "b in net" "net" (Prog.unit_name prog "b")

let test_loc_estimate () =
  let prog = Helpers.compile "void a() { print(1); print(2); }" in
  Alcotest.(check bool) "roughly stmt count" true (Prog.loc_estimate prog >= 3)

let test_alloc_sites_distinct () =
  let prog =
    Helpers.compile "void f() { int *a = malloc(); int *b = malloc(); print(*a); print(*b); }"
  in
  let f = Helpers.func prog "f" in
  let sites =
    Func.fold_stmts f ~init:[] ~f:(fun acc _ s ->
        match s.Stmt.kind with Stmt.Alloc _ -> s.Stmt.sid :: acc | _ -> acc)
  in
  Alcotest.(check int) "two sites" 2 (List.length sites);
  Alcotest.(check bool) "distinct addresses" true
    (Pinpoint_seg.Seg.alloc_address "f" (List.nth sites 0)
    <> Pinpoint_seg.Seg.alloc_address "f" (List.nth sites 1))

(* Functions come back in definition order across units, and a
   duplicate definition is still an error. *)
let test_prog_definition_order () =
  let names = List.init 40 (fun i -> Printf.sprintf "f%02d" (39 - i)) in
  let src =
    String.concat "\n"
      (List.mapi
         (fun i n ->
           (if i mod 10 = 0 then Printf.sprintf "unit \"u%d\";\n" (i / 10)
            else "")
           ^ Printf.sprintf "int %s(int a) { return a; }" n)
         names)
  in
  let prog = Helpers.compile src in
  Alcotest.(check (list string))
    "definition order" names
    (List.map (fun (f : Func.t) -> f.Func.fname) (Prog.functions prog));
  Alcotest.(check string) "unit of the last function" "u3"
    (Prog.unit_name prog "f00");
  let extra = Helpers.func (Helpers.compile "int g(int a) { return a; }") "g" in
  Prog.add prog extra;
  Alcotest.(check (option string))
    "append after a read" (Some "g")
    (Option.map
       (fun (f : Func.t) -> f.Func.fname)
       (List.nth_opt (Prog.functions prog) 40));
  match Prog.add prog extra with
  | () -> Alcotest.fail "duplicate accepted"
  | exception Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "prog definition order" `Quick test_prog_definition_order;
    Alcotest.test_case "ssa single def" `Quick test_ssa_single_def;
    Alcotest.test_case "ssa uses dominated" `Quick test_ssa_uses_dominated;
    Alcotest.test_case "gating exclusive+complete" `Quick test_gating_exclusive;
    Alcotest.test_case "reaching conditions" `Quick test_reaching_conditions;
    Alcotest.test_case "control dependence" `Quick test_cdg;
    Alcotest.test_case "reaches" `Quick test_reaches;
    Alcotest.test_case "call graph" `Quick test_call_graph;
    Alcotest.test_case "bottom-up order" `Quick test_bottom_up_order;
    Alcotest.test_case "recursion scc" `Quick test_recursion_scc;
    test_cone_sccs_gen;
    test_cone_sccs_cyclic;
    Alcotest.test_case "validate catches bad targets" `Quick test_validate_catches;
    Alcotest.test_case "units" `Quick test_prog_units;
    Alcotest.test_case "loc estimate" `Quick test_loc_estimate;
    Alcotest.test_case "alloc sites distinct" `Quick test_alloc_sites_distinct;
  ]
