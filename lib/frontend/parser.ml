open Lexer

exception Error of string * int

type state = {
  file : string;
  toks : located array;
  mutable pos : int;
  mutable unit_name : string;
}

let cur st = st.toks.(st.pos)
let peek_tok st = (cur st).tok
let peek2 st = if st.pos + 1 < Array.length st.toks then st.toks.(st.pos + 1).tok else EOF
let line st = (cur st).line
let loc st : Ast.loc = { file = st.file; line = line st }
let advance st = st.pos <- st.pos + 1

let fail st msg =
  raise (Error (Printf.sprintf "%s (found '%s')" msg
                  (Pinpoint_util.Pp.to_string pp_token (peek_tok st)), line st))

let expect st tok msg =
  if peek_tok st = tok then advance st else fail st msg

let ident st =
  match peek_tok st with
  | IDENT x ->
    advance st;
    x
  | _ -> fail st "expected identifier"

(* ty := ("int" | "bool") "*"* *)
let base_ty st : Pinpoint_ir.Ty.t option =
  match peek_tok st with
  | KW_INT ->
    advance st;
    Some Pinpoint_ir.Ty.Int
  | KW_BOOL ->
    advance st;
    Some Pinpoint_ir.Ty.Bool
  | _ -> None

let stars st =
  let k = ref 0 in
  while peek_tok st = STAR do
    advance st;
    incr k
  done;
  !k

let ty st =
  match base_ty st with
  | None -> fail st "expected type"
  | Some b -> Pinpoint_ir.Ty.ptr_k b (stars st)

(* Expressions *)
let rec expr st = or_expr st

and or_expr st =
  let l = loc st in
  let a = and_expr st in
  if peek_tok st = OROR then begin
    advance st;
    let b = or_expr st in
    { Ast.eloc = l; enode = Ast.Ebin (Pinpoint_ir.Ops.Lor, a, b) }
  end
  else a

and and_expr st =
  let l = loc st in
  let a = eq_expr st in
  if peek_tok st = ANDAND then begin
    advance st;
    let b = and_expr st in
    { Ast.eloc = l; enode = Ast.Ebin (Pinpoint_ir.Ops.Land, a, b) }
  end
  else a

and eq_expr st =
  let l = loc st in
  let a = rel_expr st in
  match peek_tok st with
  | EQ ->
    advance st;
    let b = rel_expr st in
    { Ast.eloc = l; enode = Ast.Ebin (Pinpoint_ir.Ops.Eq, a, b) }
  | NE ->
    advance st;
    let b = rel_expr st in
    { Ast.eloc = l; enode = Ast.Ebin (Pinpoint_ir.Ops.Ne, a, b) }
  | _ -> a

and rel_expr st =
  let l = loc st in
  let a = add_expr st in
  let mk op =
    advance st;
    let b = add_expr st in
    { Ast.eloc = l; enode = Ast.Ebin (op, a, b) }
  in
  match peek_tok st with
  | LT -> mk Pinpoint_ir.Ops.Lt
  | LE -> mk Pinpoint_ir.Ops.Le
  | GT -> mk Pinpoint_ir.Ops.Gt
  | GE -> mk Pinpoint_ir.Ops.Ge
  | _ -> a

and add_expr st =
  let l = loc st in
  let a = ref (mul_expr st) in
  let continue = ref true in
  while !continue do
    match peek_tok st with
    | PLUS ->
      advance st;
      let b = mul_expr st in
      a := { Ast.eloc = l; enode = Ast.Ebin (Pinpoint_ir.Ops.Add, !a, b) }
    | MINUS ->
      advance st;
      let b = mul_expr st in
      a := { Ast.eloc = l; enode = Ast.Ebin (Pinpoint_ir.Ops.Sub, !a, b) }
    | _ -> continue := false
  done;
  !a

and mul_expr st =
  let l = loc st in
  let a = ref (unary st) in
  while peek_tok st = STAR do
    advance st;
    let b = unary st in
    a := { Ast.eloc = l; enode = Ast.Ebin (Pinpoint_ir.Ops.Mul, !a, b) }
  done;
  !a

and unary st =
  let l = loc st in
  match peek_tok st with
  | MINUS ->
    advance st;
    let a = unary st in
    { Ast.eloc = l; enode = Ast.Eun (Pinpoint_ir.Ops.Neg, a) }
  | BANG ->
    advance st;
    let a = unary st in
    { Ast.eloc = l; enode = Ast.Eun (Pinpoint_ir.Ops.Lnot, a) }
  | STAR ->
    (* count the deref depth *)
    let k = stars st in
    let a = unary st in
    { Ast.eloc = l; enode = Ast.Ederef (a, k) }
  | _ -> primary st

and primary st =
  let l = loc st in
  match peek_tok st with
  | INT n ->
    advance st;
    { Ast.eloc = l; enode = Ast.Eint n }
  | KW_TRUE ->
    advance st;
    { Ast.eloc = l; enode = Ast.Ebool true }
  | KW_FALSE ->
    advance st;
    { Ast.eloc = l; enode = Ast.Ebool false }
  | KW_NULL ->
    advance st;
    { Ast.eloc = l; enode = Ast.Enull }
  | KW_MALLOC ->
    advance st;
    expect st LPAREN "expected '(' after malloc";
    expect st RPAREN "expected ')' after malloc(";
    { Ast.eloc = l; enode = Ast.Emalloc }
  | KW_VCALL -> (
    advance st;
    match peek_tok st with
    | STRING group ->
      advance st;
      expect st LPAREN "expected '(' after vcall group";
      let args = ref [] in
      if peek_tok st <> RPAREN then begin
        args := [ expr st ];
        while peek_tok st = COMMA do
          advance st;
          args := expr st :: !args
        done
      end;
      expect st RPAREN "expected ')' after vcall arguments";
      { Ast.eloc = l; enode = Ast.Evcall (group, List.rev !args) }
    | _ -> fail st "expected group string after vcall")
  | IDENT x ->
    advance st;
    if peek_tok st = LPAREN then begin
      advance st;
      let args = ref [] in
      if peek_tok st <> RPAREN then begin
        args := [ expr st ];
        while peek_tok st = COMMA do
          advance st;
          args := expr st :: !args
        done
      end;
      expect st RPAREN "expected ')' after arguments";
      { Ast.eloc = l; enode = Ast.Ecall (x, List.rev !args) }
    end
    else { Ast.eloc = l; enode = Ast.Evar x }
  | LPAREN ->
    advance st;
    let e = expr st in
    expect st RPAREN "expected ')'";
    e
  | _ -> fail st "expected expression"

(* Statements *)
let rec stmt st : Ast.stmt =
  let l = loc st in
  match peek_tok st with
  | KW_INT | KW_BOOL ->
    let t = ty st in
    let x = ident st in
    let init =
      if peek_tok st = ASSIGN then begin
        advance st;
        Some (expr st)
      end
      else None
    in
    expect st SEMI "expected ';' after declaration";
    { Ast.sloc = l; snode = Ast.Sdecl (t, x, init) }
  | STAR ->
    let k = stars st in
    let x = ident st in
    expect st ASSIGN "expected '=' in store";
    let e = expr st in
    expect st SEMI "expected ';' after store";
    { Ast.sloc = l; snode = Ast.Sstore (k, x, e) }
  | KW_IF ->
    advance st;
    expect st LPAREN "expected '(' after if";
    let c = expr st in
    expect st RPAREN "expected ')' after condition";
    let then_ = stmt st in
    let else_ =
      if peek_tok st = KW_ELSE then begin
        advance st;
        Some (stmt st)
      end
      else None
    in
    { Ast.sloc = l; snode = Ast.Sif (c, then_, else_) }
  | KW_WHILE ->
    advance st;
    expect st LPAREN "expected '(' after while";
    let c = expr st in
    expect st RPAREN "expected ')' after condition";
    let body = stmt st in
    { Ast.sloc = l; snode = Ast.Swhile (c, body) }
  | KW_RETURN ->
    advance st;
    if peek_tok st = SEMI then begin
      advance st;
      { Ast.sloc = l; snode = Ast.Sreturn None }
    end
    else begin
      let e = expr st in
      expect st SEMI "expected ';' after return";
      { Ast.sloc = l; snode = Ast.Sreturn (Some e) }
    end
  | LBRACE ->
    advance st;
    let stmts = ref [] in
    while peek_tok st <> RBRACE do
      stmts := stmt st :: !stmts
    done;
    advance st;
    { Ast.sloc = l; snode = Ast.Sblock (List.rev !stmts) }
  | IDENT x when peek2 st = ASSIGN ->
    advance st;
    advance st;
    let e = expr st in
    expect st SEMI "expected ';' after assignment";
    { Ast.sloc = l; snode = Ast.Sassign (x, e) }
  | _ ->
    let e = expr st in
    expect st SEMI "expected ';' after expression";
    { Ast.sloc = l; snode = Ast.Sexpr e }

let rettype st : Pinpoint_ir.Ty.t option =
  match peek_tok st with
  | KW_VOID ->
    advance st;
    None
  | _ -> Some (ty st)

let func st : Ast.fdecl =
  let l = loc st in
  let group =
    if peek_tok st = KW_METHOD then begin
      advance st;
      match peek_tok st with
      | STRING g ->
        advance st;
        Some g
      | _ -> fail st "expected group string after 'method'"
    end
    else None
  in
  let ret = rettype st in
  let name = ident st in
  expect st LPAREN "expected '(' after function name";
  let params = ref [] in
  if peek_tok st <> RPAREN then begin
    let p () =
      let t = ty st in
      let x = ident st in
      (t, x)
    in
    params := [ p () ];
    while peek_tok st = COMMA do
      advance st;
      params := p () :: !params
    done
  end;
  expect st RPAREN "expected ')' after parameters";
  let body = stmt st in
  (match body.Ast.snode with
  | Ast.Sblock _ -> ()
  | _ -> raise (Error ("function body must be a block", l.line)));
  {
    Ast.fname = name;
    params = List.rev !params;
    ret;
    body;
    floc = l;
    unit_name = st.unit_name;
    group;
  }

(* Streaming interface: tokenize once, replay the token buffer per pass.
   Each [iter_fdecls] hands function ASTs to the callback one at a time,
   so no pass ever materialises the whole program AST — at MLoC scale
   that AST rivals the lowered IR for peak heap. *)

type stream = state

let stream ?(file = "<string>") src =
  let toks =
    try Lexer.tokenize ~file src
    with Lexer.Error (msg, line) -> raise (Error (msg, line))
  in
  { file; toks; pos = 0; unit_name = "main" }

let iter_fdecls (st : stream) f =
  st.pos <- 0;
  st.unit_name <- "main";
  while peek_tok st <> EOF do
    match peek_tok st with
    | KW_UNIT -> (
      advance st;
      match peek_tok st with
      | STRING s ->
        advance st;
        expect st SEMI "expected ';' after unit declaration";
        st.unit_name <- s
      | _ -> fail st "expected string after 'unit'")
    | _ -> f (func st)
  done

let parse_string ?file src =
  let funcs = ref [] in
  iter_fdecls (stream ?file src) (fun fd -> funcs := fd :: !funcs);
  { Ast.funcs = List.rev !funcs }

let parse_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  parse_string ~file:path src
