(* Tests for the MC frontend: lexer, parser, lowering. *)

open Pinpoint_frontend
open Pinpoint_ir

let tokens src =
  Array.to_list (Lexer.tokenize src) |> List.map (fun l -> l.Lexer.tok)

let test_lexer_basic () =
  Alcotest.(check int) "token count" 6
    (List.length (tokens "int x = 1;"));
  (match tokens "x >= 10" with
  | [ Lexer.IDENT "x"; Lexer.GE; Lexer.INT 10; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "ge lexing");
  match tokens "a&&b||!c" with
  | [ Lexer.IDENT "a"; Lexer.ANDAND; Lexer.IDENT "b"; Lexer.OROR;
      Lexer.BANG; Lexer.IDENT "c"; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "operator lexing"

let test_lexer_comments () =
  Alcotest.(check int) "line comment" 1 (List.length (tokens "// hi\n"));
  Alcotest.(check int) "block comment" 1 (List.length (tokens "/* x \n y */"));
  Alcotest.check_raises "unterminated block"
    (Lexer.Error ("unterminated block comment", 2)) (fun () ->
      ignore (tokens "/* \n oops"))

let test_lexer_lines () =
  let toks = Lexer.tokenize "int x;\nint y;" in
  let y_tok =
    Array.to_list toks
    |> List.find (fun l -> l.Lexer.tok = Lexer.IDENT "y")
  in
  Alcotest.(check int) "line tracking" 2 y_tok.Lexer.line

let test_lexer_keywords () =
  (match tokens "while null true malloc unit" with
  | [ Lexer.KW_WHILE; Lexer.KW_NULL; Lexer.KW_TRUE; Lexer.KW_MALLOC;
      Lexer.KW_UNIT; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "keywords");
  match tokens "whilex" with
  | [ Lexer.IDENT "whilex"; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "keyword prefix is an ident"

let parse src = Parser.parse_string src

let test_parser_function () =
  let p = parse "int* f(int *a, int b) { return a; }" in
  match p.Ast.funcs with
  | [ f ] ->
    Alcotest.(check string) "name" "f" f.Ast.fname;
    Alcotest.(check int) "params" 2 (List.length f.Ast.params);
    Alcotest.(check bool) "ret ty" true (f.Ast.ret = Some (Ty.Ptr Ty.Int))
  | _ -> Alcotest.fail "one function"

let test_parser_precedence () =
  let p = parse "int f(int a) { int x = 1 + 2 * 3 < 7 && true; return x; }" in
  match p.Ast.funcs with
  | [ { Ast.body = { Ast.snode = Ast.Sblock (s :: _); _ }; _ } ] -> (
    match s.Ast.snode with
    | Ast.Sdecl (_, _, Some { Ast.enode = Ast.Ebin (Pinpoint_ir.Ops.Land, _, _); _ }) -> ()
    | _ -> Alcotest.fail "&& binds loosest")
  | _ -> Alcotest.fail "shape"

let test_parser_deref_store () =
  let p = parse "void f(int **h) { **h = 3; int x = **h; }" in
  match p.Ast.funcs with
  | [ { Ast.body = { Ast.snode = Ast.Sblock [ s1; s2 ]; _ }; _ } ] ->
    (match s1.Ast.snode with
    | Ast.Sstore (2, "h", _) -> ()
    | _ -> Alcotest.fail "store depth 2");
    (match s2.Ast.snode with
    | Ast.Sdecl (_, _, Some { Ast.enode = Ast.Ederef (_, 2); _ }) -> ()
    | _ -> Alcotest.fail "deref depth 2")
  | _ -> Alcotest.fail "shape"

let test_parser_units () =
  let p = parse "unit \"u1\"; void f() { } unit \"u2\"; void g() { }" in
  match p.Ast.funcs with
  | [ f; g ] ->
    Alcotest.(check string) "f unit" "u1" f.Ast.unit_name;
    Alcotest.(check string) "g unit" "u2" g.Ast.unit_name
  | _ -> Alcotest.fail "two functions"

let test_parser_errors () =
  let expect_error src =
    match parse src with
    | exception Parser.Error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %s" src
  in
  expect_error "void f( { }";
  expect_error "void f() { int; }";
  expect_error "void f() { x = ; }";
  expect_error "void f() { if x { } }"

let test_roundtrip () =
  let src = "int* f(int *a, int b) { if (b > 0) { *a = b; } else { int c = *a; print(c); } while (b < 3) { b = b + 1; } return a; }" in
  let p1 = parse src in
  let printed = Pinpoint_util.Pp.to_string Ast.pp_program p1 in
  let p2 = parse printed in
  Alcotest.(check int) "same function count" (List.length p1.Ast.funcs)
    (List.length p2.Ast.funcs);
  (* both compile to the same number of statements *)
  let c1 = Lower.compile p1 and c2 = Lower.compile p2 in
  Alcotest.(check int) "same stmt count" (Prog.n_stmts c1) (Prog.n_stmts c2)

(* --- one compile path: whole AST vs streamed source --- *)

(* Per function, in program order: name, unit, statement count and the
   callees in statement order (vcall dispatch chains follow the method
   group's member order). *)
let compile_fingerprint prog =
  List.map
    (fun (f : Func.t) ->
      let callees = ref [] in
      Func.iter_stmts f (fun _ s ->
          match s.Stmt.kind with
          | Stmt.Call c -> callees := c.Stmt.callee :: !callees
          | _ -> ());
      ( f.Func.fname,
        Prog.unit_name prog f.Func.fname,
        Func.n_stmts f,
        List.rev !callees ))
    (Prog.functions prog)

let check_compile_paths ~label src =
  let ast = Parser.parse_string src in
  let fp = compile_fingerprint in
  if fp (Lower.compile ast) <> fp (Lower.compile_string src) then
    Alcotest.failf "%s: whole-AST and streaming compiles differ" label;
  (* Method groups list their members in declaration order. *)
  let groups = Lower.method_groups ast in
  let names =
    List.sort_uniq compare
      (List.filter_map (fun (fd : Ast.fdecl) -> fd.Ast.group) ast.Ast.funcs)
  in
  Alcotest.(check (list string))
    (label ^ ": group names") names
    (List.sort compare (List.of_seq (Hashtbl.to_seq_keys groups)));
  List.iter
    (fun g ->
      Alcotest.(check (list string))
        (label ^ ": group " ^ g)
        (List.filter_map
           (fun (fd : Ast.fdecl) ->
             if fd.Ast.group = Some g then Some fd.Ast.fname else None)
           ast.Ast.funcs)
        (Hashtbl.find groups g))
    names

let test_compile_paths_agree () =
  let dir = Test_corpus.corpus_dir () in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".mc")
  |> List.sort compare
  |> List.iter (fun f ->
         check_compile_paths ~label:f
           (In_channel.with_open_bin (Filename.concat dir f)
              In_channel.input_all));
  (* A few thousand members in one group, spread over units, with a
     dispatching caller in between (it dispatches over the small group:
     a chain of thousands of guarded calls would only time the SSA). *)
  let b = Buffer.create (1 lsl 16) in
  for i = 0 to 2999 do
    if i mod 700 = 0 then Printf.bprintf b "unit \"u%d\";\n" (i / 700);
    Printf.bprintf b "method \"big\" int m%d(int x) { return x + %d; }\n" i i;
    if i mod 1000 = 0 then
      Printf.bprintf b "method \"small\" void s%d(int *p) { free(p); }\n" i;
    if i = 1500 then
      Buffer.add_string b
        "int caller(int y) { int *p = malloc(); vcall \"small\"(p); \
         return y; }\n"
  done;
  check_compile_paths ~label:"generated groups" (Buffer.contents b)

(* --- lowering --- *)

let test_lower_basic () =
  let prog = Helpers.compile "int f(int a) { return a + 1; }" in
  (match Prog.validate prog with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let f = Helpers.func prog "f" in
  Alcotest.(check bool) "is ssa" true (Ssa.is_ssa f);
  match Func.return_stmt f with
  | Some { Stmt.kind = Stmt.Return [ _ ]; _ } -> ()
  | _ -> Alcotest.fail "single return with one operand"

let test_lower_single_exit () =
  let prog =
    Helpers.compile
      "int f(int a) { if (a > 0) { return 1; } return 2; }"
  in
  let f = Helpers.func prog "f" in
  let returns =
    Func.fold_stmts f ~init:0 ~f:(fun n _ s ->
        match s.Stmt.kind with Stmt.Return _ -> n + 1 | _ -> n)
  in
  Alcotest.(check int) "one return statement" 1 returns;
  Alcotest.(check bool) "dag" true
    (Pinpoint_util.Digraph.is_dag (Func.cfg f))

let test_lower_while_unroll () =
  let prog = Helpers.compile "int f(int a) { while (a > 0) { a = a - 1; } return a; }" in
  let f = Helpers.func prog "f" in
  (* unrolled: the CFG must be acyclic *)
  Alcotest.(check bool) "no back edge" true (Pinpoint_util.Digraph.is_dag (Func.cfg f))

let test_lower_cond_desugar () =
  (* if (p) with a pointer becomes p != 0 *)
  let prog = Helpers.compile "void f(int *p) { if (p) { print(1); } }" in
  let f = Helpers.func prog "f" in
  let has_ne =
    Func.fold_stmts f ~init:false ~f:(fun acc _ s ->
        match s.Stmt.kind with
        | Stmt.Binop (_, Pinpoint_ir.Ops.Ne, _, _) -> true
        | _ -> acc)
  in
  Alcotest.(check bool) "comparison inserted" true has_ne

let test_lower_dead_code () =
  let prog =
    Helpers.compile "int f(int a) { return 1; a = 2; print(a); return a; }"
  in
  let f = Helpers.func prog "f" in
  (* the statements after return are unreachable and removed *)
  Func.iter_blocks f (fun b ->
      Alcotest.(check bool) "block reachable" true
        (b.Func.bid = f.Func.entry
        || Pinpoint_util.Digraph.preds (Func.cfg f) b.Func.bid <> []))

let test_lower_errors () =
  let expect_error src =
    match Helpers.compile src with
    | exception Lower.Error _ -> ()
    | _ -> Alcotest.failf "expected lowering error for %s" src
  in
  expect_error "void f() { x = 1; }" (* undeclared *);
  expect_error "void f() { int x; int x; }" (* redeclaration *);
  expect_error "void f(int a) { int y = *a; }" (* deref non-pointer *);
  expect_error "void f() { return 1; }" (* void returns value *);
  expect_error "int f() { return; }" (* non-void returns nothing *);
  expect_error "void f(int *p) { free(p, p); }" (* arity *)

let test_lower_scoping () =
  (* shadowing in nested blocks is allowed *)
  let prog =
    Helpers.compile
      "int f(int a) { int x = 1; if (a > 0) { int x = 2; print(x); } return x; }"
  in
  let f = Helpers.func prog "f" in
  Alcotest.(check bool) "ssa" true (Ssa.is_ssa f)

let test_lower_memcpy_like_calls () =
  (* intrinsics with flexible arity lower fine *)
  let prog =
    Helpers.compile
      "void f(int *d, int *s) { memcpy(d, s); memset(d, 0); print(*d); }"
  in
  match Prog.validate prog with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_lower_phi_gates_filled () =
  let prog =
    Helpers.compile
      "int f(int a) { int r = 0; if (a > 0) { r = 1; } else { r = 2; } return r; }"
  in
  let f = Helpers.func prog "f" in
  let all_gates =
    Func.fold_stmts f ~init:true ~f:(fun acc _ s ->
        match s.Stmt.kind with
        | Stmt.Phi (_, args) ->
          acc && List.for_all (fun a -> a.Stmt.gate <> None) args
        | _ -> acc)
  in
  Alcotest.(check bool) "gates filled" true all_gates

let gen_subject_compiles =
  Helpers.qtest ~count:25 "generated subjects always compile and validate"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let s =
        Pinpoint_workload.Gen.generate ~name:"q.mc"
          { Pinpoint_workload.Gen.default_params with seed; target_loc = 400 }
      in
      let prog = Pinpoint_workload.Gen.compile s in
      Prog.validate prog = Ok ()
      && List.for_all (fun f -> Ssa.is_ssa f) (Prog.functions prog))

let suite =
  [
    Alcotest.test_case "lexer basic" `Quick test_lexer_basic;
    Alcotest.test_case "lexer comments" `Quick test_lexer_comments;
    Alcotest.test_case "lexer lines" `Quick test_lexer_lines;
    Alcotest.test_case "lexer keywords" `Quick test_lexer_keywords;
    Alcotest.test_case "parser function" `Quick test_parser_function;
    Alcotest.test_case "parser precedence" `Quick test_parser_precedence;
    Alcotest.test_case "parser deref/store" `Quick test_parser_deref_store;
    Alcotest.test_case "parser units" `Quick test_parser_units;
    Alcotest.test_case "parser errors" `Quick test_parser_errors;
    Alcotest.test_case "pp/parse roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "compile: whole AST = streaming" `Quick
      test_compile_paths_agree;
    Alcotest.test_case "lower basic" `Quick test_lower_basic;
    Alcotest.test_case "lower single exit" `Quick test_lower_single_exit;
    Alcotest.test_case "lower while unroll" `Quick test_lower_while_unroll;
    Alcotest.test_case "lower cond desugar" `Quick test_lower_cond_desugar;
    Alcotest.test_case "lower dead code" `Quick test_lower_dead_code;
    Alcotest.test_case "lower errors" `Quick test_lower_errors;
    Alcotest.test_case "lower scoping" `Quick test_lower_scoping;
    Alcotest.test_case "lower intrinsics" `Quick test_lower_memcpy_like_calls;
    Alcotest.test_case "phi gates filled" `Quick test_lower_phi_gates_filled;
    gen_subject_compiles;
  ]
