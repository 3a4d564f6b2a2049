open Pinpoint_ir

exception Error of string * Ast.loc

let err loc fmt = Format.kasprintf (fun s -> raise (Error (s, loc))) fmt

type env = {
  f : Func.t;
  sigs : (string, Ty_sig.t) Hashtbl.t;
  groups : (string, string list) Hashtbl.t;
      (* method group -> member function names, CHA-style *)
  mutable cur : int;  (** current block id *)
  mutable terminated : bool;  (** current block already has a real terminator *)
  mutable scopes : (string, Var.t) Hashtbl.t list;
  ret_var : Var.t option;
  exit_bid : int;
}

let push_scope env = env.scopes <- Hashtbl.create 16 :: env.scopes
let pop_scope env = env.scopes <- List.tl env.scopes

let declare env loc name ty =
  match env.scopes with
  | [] -> assert false
  | scope :: _ ->
    if Hashtbl.mem scope name then err loc "redeclaration of %s" name;
    let v = Var.make env.f.Func.vgen name ty in
    Hashtbl.add scope name v;
    v

let lookup env loc name =
  let rec go = function
    | [] -> err loc "undeclared variable %s" name
    | scope :: rest -> (
      match Hashtbl.find_opt scope name with Some v -> v | None -> go rest)
  in
  go env.scopes

let emit env ?(loc = Stmt.no_loc) kind =
  let s = Stmt.make env.f.Func.sgen ~loc kind in
  Func.append env.f env.cur s;
  s

let new_block env =
  let b = Func.add_block env.f in
  b.Func.bid

let start_block env bid =
  env.cur <- bid;
  env.terminated <- false

let terminate env term =
  if not env.terminated then begin
    Func.set_term env.f env.cur term;
    env.terminated <- true
  end

let temp env ty =
  let name = Printf.sprintf "t%d" (Pinpoint_util.Id_gen.peek env.f.Func.vgen) in
  Var.make env.f.Func.vgen name ty

let operand_ty_exn loc o =
  match Stmt.operand_ty o with
  | Some t -> t
  | None -> err loc "cannot determine the type of null here"

(* When the current block was terminated (by a return), any further
   statements are unreachable; lower them into a fresh dead block so the
   lowering stays well formed.  The cleanup pass drops them. *)
let ensure_open env =
  if env.terminated then begin
    let b = new_block env in
    start_block env b
  end

let rec lower_expr env ?expect (e : Ast.expr) : Stmt.operand =
  ensure_open env;
  let loc = e.Ast.eloc in
  match e.Ast.enode with
  | Ast.Eint n -> Stmt.Oint n
  | Ast.Ebool b -> Stmt.Obool b
  | Ast.Enull -> Stmt.Onull
  | Ast.Evar x -> Stmt.Ovar (lookup env loc x)
  | Ast.Ederef (inner, k) ->
    let base = lower_expr env inner in
    let bty = operand_ty_exn loc base in
    let rty =
      match Ty.deref_k bty k with
      | Some t -> t
      | None -> err loc "cannot dereference %s %d time(s)" (Ty.to_string bty) k
    in
    let v = temp env rty in
    ignore (emit env ~loc (Stmt.Load (v, base, k)));
    Stmt.Ovar v
  | Ast.Ebin (op, a, b) ->
    let oa = lower_expr env a in
    let ob = lower_expr env b in
    let aty =
      match Stmt.operand_ty oa with
      | Some t -> t
      | None -> (
        match Stmt.operand_ty ob with Some t -> t | None -> Ty.Ptr Ty.Int)
    in
    let rty = Ops.binop_result op aty in
    let v = temp env rty in
    ignore (emit env ~loc (Stmt.Binop (v, op, oa, ob)));
    Stmt.Ovar v
  | Ast.Eun (op, a) ->
    let oa = lower_expr env a in
    let aty = Option.value (Stmt.operand_ty oa) ~default:Ty.Int in
    let v = temp env (Ops.unop_result op aty) in
    ignore (emit env ~loc (Stmt.Unop (v, op, oa)));
    Stmt.Ovar v
  | Ast.Emalloc ->
    let ty = Option.value expect ~default:(Ty.Ptr Ty.Int) in
    if not (Ty.is_pointer ty) then err loc "malloc() needs a pointer type context";
    let v = temp env ty in
    ignore (emit env ~loc (Stmt.Alloc v));
    Stmt.Ovar v
  | Ast.Ecall (name, args) -> (
    match lower_call env ~loc ?expect name args ~need_value:true with
    | Some v -> Stmt.Ovar v
    | None -> err loc "void call %s used as a value" name)
  | Ast.Evcall (group, args) -> (
    match lower_vcall env ~loc ?expect group args ~need_value:true with
    | Some v -> Stmt.Ovar v
    | None -> err loc "void vcall %S used as a value" group)

and lower_call env ~loc ?expect name args ~need_value : Var.t option =
  let arg_ops = List.map (fun a -> lower_expr env a) args in
  let sg =
    match Hashtbl.find_opt env.sigs name with
    | Some s -> Some s
    | None -> Ty_sig.intrinsic name
  in
  (* Arity check against known signatures. *)
  (match sg with
  | Some { Ty_sig.params = Some ps; _ } ->
    if List.length ps <> List.length arg_ops then
      err loc "%s expects %d argument(s), got %d" name (List.length ps)
        (List.length arg_ops)
  | _ -> ());
  let ret_ty =
    match sg with
    | Some { Ty_sig.ret; _ } -> ret
    | None ->
      (* Unknown external: give it a value type only if the context needs
         one. *)
      if need_value then Some (Option.value expect ~default:Ty.Int) else None
  in
  let recvs =
    match ret_ty with
    | Some t when need_value -> [ temp env t ]
    | Some t ->
      (* value returned but discarded; keep a receiver for uniformity *)
      [ temp env t ]
    | None -> []
  in
  ignore (emit env ~loc (Stmt.Call { Stmt.callee = name; args = arg_ops; recvs }));
  match recvs with v :: _ -> Some v | [] -> None

(* Virtual dispatch (paper §4.2's class-hierarchy resolution): the call may
   reach any member of the group.  Lowered as a guarded chain over an
   opaque selector, which is exactly CHA's over-approximation and keeps
   every downstream analysis unchanged:

     sel <- vselect();
     if (sel == 0) r = m0(args) else if (sel == 1) r = m1(args) ... *)
and lower_vcall env ~loc ?expect group args ~need_value : Var.t option =
  ignore expect;
  let members =
    match Hashtbl.find_opt env.groups group with
    | Some (_ :: _ as ms) -> ms
    | _ -> err loc "no methods declared for group %S" group
  in
  let ret_ty =
    match Hashtbl.find_opt env.sigs (List.hd members) with
    | Some { Ty_sig.ret; _ } -> ret
    | None -> None
  in
  (match ret_ty with
  | None when need_value -> err loc "void vcall %S used as a value" group
  | _ -> ());
  (* evaluate arguments once *)
  let arg_ops = List.map (fun a -> lower_expr env a) args in
  let sel = temp env Ty.Int in
  ignore
    (emit env ~loc (Stmt.Call { Stmt.callee = "vselect"; args = []; recvs = [ sel ] }));
  let result = Option.map (fun t -> temp env t) ret_ty in
  let n = List.length members in
  let emit_member name =
    let recvs = match result with Some _ -> [ temp env (Option.get ret_ty) ] | None -> [] in
    ignore (emit env ~loc (Stmt.Call { Stmt.callee = name; args = arg_ops; recvs }));
    match (result, recvs) with
    | Some r, [ v ] -> ignore (emit env ~loc (Stmt.Assign (r, Stmt.Ovar v)))
    | _ -> ()
  in
  let rec chain i = function
    | [] -> ()
    | [ last ] -> emit_member last
    | m :: rest ->
      let guard = temp env Ty.Bool in
      ignore (emit env ~loc (Stmt.Binop (guard, Ops.Eq, Stmt.Ovar sel, Stmt.Oint i)));
      let then_b = new_block env in
      let else_b = new_block env in
      let merge_b = new_block env in
      terminate env (Func.Br (Stmt.Ovar guard, then_b, else_b));
      start_block env then_b;
      emit_member m;
      terminate env (Func.Jump merge_b);
      start_block env else_b;
      chain (i + 1) rest;
      terminate env (Func.Jump merge_b);
      start_block env merge_b
  in
  ignore n;
  chain 0 members;
  result

(* Conditions must be boolean; integers and pointers compare against 0
   (null is address 0). *)
let lower_cond env (e : Ast.expr) : Stmt.operand =
  let loc = e.Ast.eloc in
  let o = lower_expr env e in
  match Stmt.operand_ty o with
  | Some Ty.Bool -> o
  | Some Ty.Int | Some (Ty.Ptr _) | None ->
    let v = temp env Ty.Bool in
    ignore (emit env ~loc (Stmt.Binop (v, Ops.Ne, o, Stmt.Oint 0)));
    Stmt.Ovar v

let rec lower_stmt env (s : Ast.stmt) : unit =
  let loc = s.Ast.sloc in
  match s.Ast.snode with
  | Ast.Sdecl (ty, x, init) ->
    ensure_open env;
    let init_op = Option.map (fun e -> lower_expr env ~expect:ty e) init in
    let v = declare env loc x ty in
    (match init_op with
    | Some o -> ignore (emit env ~loc (Stmt.Assign (v, o)))
    | None -> ())
  | Ast.Sassign (x, e) ->
    ensure_open env;
    let v = lookup env loc x in
    let o = lower_expr env ~expect:v.Var.ty e in
    ignore (emit env ~loc (Stmt.Assign (v, o)))
  | Ast.Sstore (k, x, e) ->
    ensure_open env;
    let v = lookup env loc x in
    let vty =
      match Ty.deref_k v.Var.ty k with
      | Some t -> t
      | None ->
        err loc "cannot store through %s %d time(s)" (Ty.to_string v.Var.ty) k
    in
    let o = lower_expr env ~expect:vty e in
    ignore (emit env ~loc (Stmt.Store (Stmt.Ovar v, k, o)))
  | Ast.Sif (c, then_s, else_s) ->
    ensure_open env;
    let cond = lower_cond env c in
    let then_b = new_block env in
    let else_b = new_block env in
    let merge_b = new_block env in
    terminate env (Func.Br (cond, then_b, else_b));
    start_block env then_b;
    push_scope env;
    lower_stmt env then_s;
    pop_scope env;
    terminate env (Func.Jump merge_b);
    start_block env else_b;
    (match else_s with
    | Some es ->
      push_scope env;
      lower_stmt env es;
      pop_scope env
    | None -> ());
    terminate env (Func.Jump merge_b);
    start_block env merge_b
  | Ast.Swhile (c, body) ->
    (* Loop unrolling (§4.2): the body executes at most once. *)
    lower_stmt env { s with Ast.snode = Ast.Sif (c, body, None) }
  | Ast.Sreturn e ->
    ensure_open env;
    (match (e, env.ret_var) with
    | Some e, Some rv ->
      let o = lower_expr env ~expect:rv.Var.ty e in
      ignore (emit env ~loc (Stmt.Assign (rv, o)))
    | Some _, None -> err loc "void function returns a value"
    | None, Some _ -> err loc "non-void function returns no value"
    | None, None -> ());
    terminate env (Func.Jump env.exit_bid)
  | Ast.Sexpr e -> (
    ensure_open env;
    match e.Ast.enode with
    | Ast.Ecall (name, args) ->
      ignore (lower_call env ~loc:e.Ast.eloc name args ~need_value:false)
    | Ast.Evcall (group, args) ->
      ignore (lower_vcall env ~loc:e.Ast.eloc group args ~need_value:false)
    | _ -> ignore (lower_expr env e))
  | Ast.Sblock stmts ->
    push_scope env;
    List.iter (lower_stmt env) stmts;
    pop_scope env

(* Remove blocks unreachable from the entry, remapping ids. *)
let remove_unreachable (f : Func.t) =
  let g = Func.cfg f in
  let reach = Pinpoint_util.Digraph.reachable g f.Func.entry in
  let nb = Func.n_blocks f in
  let remap = Array.make nb (-1) in
  let next = ref 0 in
  for b = 0 to nb - 1 do
    if reach.(b) then begin
      remap.(b) <- !next;
      incr next
    end
  done;
  if !next <> nb then begin
    let blocks = Array.make !next (Func.block f f.Func.entry) in
    for b = 0 to nb - 1 do
      if remap.(b) <> -1 then begin
        let old = Func.block f b in
        let term =
          match old.Func.term with
          | Func.Jump t -> Func.Jump remap.(t)
          | Func.Br (c, t, e) -> Func.Br (c, remap.(t), remap.(e))
          | Func.Exit -> Func.Exit
        in
        (* φ arguments from removed predecessors are dropped (pre-SSA there
           are none, but stay general). *)
        let stmts =
          List.map
            (fun s ->
              (match s.Stmt.kind with
              | Stmt.Phi (v, args) ->
                let args =
                  List.filter_map
                    (fun a ->
                      if remap.(a.Stmt.pred) = -1 then None
                      else Some { a with Stmt.pred = remap.(a.Stmt.pred) })
                    args
                in
                s.Stmt.kind <- Stmt.Phi (v, args)
              | _ -> ());
              s)
            old.Func.stmts
        in
        blocks.(remap.(b)) <- { Func.bid = remap.(b); stmts; term }
      end
    done;
    f.Func.blocks <- blocks;
    f.Func.entry <- remap.(f.Func.entry);
    if remap.(f.Func.exit_) = -1 then
      (* The exit became unreachable (e.g. trivially diverging function);
         keep an empty reachable exit to preserve the invariant. *)
      (let b = Func.add_block f in
       f.Func.exit_ <- b.Func.bid)
    else f.Func.exit_ <- remap.(f.Func.exit_)
  end

let lower_fdecl ?(groups = Hashtbl.create 0) sigs (fd : Ast.fdecl) : Func.t =
  (* Create the function and its parameter variables. *)
  let f = Func.create fd.Ast.fname ~params:[] ~ret_ty:fd.Ast.ret in
  let param_vars =
    List.map
      (fun (ty, name) -> Var.make f.Func.vgen ~kind:Var.Formal name ty)
      fd.Ast.params
  in
  f.Func.params <- param_vars;
  let exit_b = Func.add_block f in
  f.Func.exit_ <- exit_b.Func.bid;
  let ret_var =
    Option.map (fun ty -> Var.make f.Func.vgen "$ret" ty) fd.Ast.ret
  in
  let env =
    {
      f;
      sigs;
      groups;
      cur = f.Func.entry;
      terminated = false;
      scopes = [];
      ret_var;
      exit_bid = exit_b.Func.bid;
    }
  in
  push_scope env;
  List.iter
    (fun ((_, name), v) -> Hashtbl.add (List.hd env.scopes) name v)
    (List.combine fd.Ast.params param_vars);
  push_scope env;
  (match fd.Ast.body.Ast.snode with
  | Ast.Sblock stmts -> List.iter (lower_stmt env) stmts
  | _ -> lower_stmt env fd.Ast.body);
  pop_scope env;
  pop_scope env;
  (* Fall-through to the exit. *)
  terminate env (Func.Jump exit_b.Func.bid);
  (* The unique return. *)
  let ret_operands = match ret_var with Some rv -> [ Stmt.Ovar rv ] | None -> [] in
  let ret_stmt = Stmt.make f.Func.sgen ~loc:fd.Ast.floc (Stmt.Return ret_operands) in
  Func.append f exit_b.Func.bid ret_stmt;
  Func.set_term f exit_b.Func.bid Func.Exit;
  remove_unreachable f;
  Ssa.run f;
  Gating.run f;
  f

(* The one compile path.  [iter] replays the program's function
   declarations in order, once per pass: the first pass collects the
   whole-program tables — signatures (forward calls) and method groups
   (vcall lowering) — the second lowers.  Over parser streams neither
   pass holds more than one function's AST (see {!Parser.iter_fdecls}),
   so peak heap holds the token buffers and the growing IR, never the
   whole-program AST, which rivals the IR for size at MLoC scale. *)
let tables iter =
  let sigs : (string, Ty_sig.t) Hashtbl.t = Hashtbl.create 64 in
  let groups : (string, string list) Hashtbl.t = Hashtbl.create 8 in
  iter (fun (fd : Ast.fdecl) ->
      Hashtbl.replace sigs fd.Ast.fname
        { Ty_sig.ret = fd.Ast.ret; params = Some (List.map fst fd.Ast.params) };
      match fd.Ast.group with
      | Some g ->
        (* Members accumulate reversed, flipped once below. *)
        let cur = Option.value (Hashtbl.find_opt groups g) ~default:[] in
        Hashtbl.replace groups g (fd.Ast.fname :: cur)
      | None -> ());
  Hashtbl.filter_map_inplace (fun _ members -> Some (List.rev members)) groups;
  (sigs, groups)

let compile_iter iter =
  let sigs, groups = tables iter in
  let prog = Prog.create () in
  iter (fun (fd : Ast.fdecl) ->
      Prog.add prog ~unit_name:fd.Ast.unit_name (lower_fdecl ~groups sigs fd));
  prog

let iter_program (p : Ast.program) f = List.iter f p.Ast.funcs
let func_sigs p = fst (tables (iter_program p))
let method_groups p = snd (tables (iter_program p))
let compile p = compile_iter (iter_program p)

let compile_streams streams =
  compile_iter (fun f -> List.iter (fun stm -> Parser.iter_fdecls stm f) streams)

let compile_string ?(file = "<string>") src =
  compile_streams [ Parser.stream ~file src ]

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  src

let compile_file path = compile_streams [ Parser.stream ~file:path (read_file path) ]

let compile_files paths =
  compile_streams
    (List.map (fun p -> Parser.stream ~file:p (read_file p)) paths)
