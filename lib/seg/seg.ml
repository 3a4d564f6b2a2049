open Pinpoint_ir
module E = Pinpoint_smt.Expr
module Sym = Pinpoint_smt.Symbol
module Pta = Pinpoint_pta.Pta

type ekind = Copy | Operand

type edge = { dst : Var.t; cond : E.t; kind : ekind }

type ukind =
  | Deref of int
  | Call_arg of { callee : string; arg_index : int }
  | Ret_op of int

type use = { uvar : Var.t; sid : int; ukind : ukind }

type recv_dep = {
  rvar : Var.t;
  call_sid : int;
  callee : string;
  ret_index : int;
  args : Stmt.operand list;
}

type cres = { f : E.t; params : Var.Set.t; recvs : recv_dep list }

type t = {
  func : Func.t;
  pta : Pta.t;
  cdg : Cdg.t;
  succ : edge list Var.Tbl.t;
  pred : edge list Var.Tbl.t;
  all_uses : use list;
  use_tbl : use list Var.Tbl.t;
  def_tbl : Stmt.t Var.Tbl.t;
  block_of : (int, int) Hashtbl.t;
  sym2var : (Sym.t, Var.t) Hashtbl.t;
  dd_memo : cres Var.Tbl.t;
  cd_block_memo : (int, cres) Hashtbl.t;
  mutable n_control_edges : int;
  lock : Mutex.t;
      (* Guards the memo tables: checkers running in different worker
         domains share segs through interprocedural steps, so the public
         DD/CD queries serialise per seg (contention is per-function, not
         global).  Internal recursion runs with the lock already held. *)
}

let func t = t.func
let pta t = t.pta

(* Globally distinct abstract addresses for allocation sites.  The table
   is shared across functions (and thus across worker domains building
   segs in parallel), so it is mutex-guarded; [reserve_addresses] lets the
   driver assign the numbers in program order up front so they stay
   deterministic under any schedule. *)
let alloc_addrs : (string * int, int) Hashtbl.t = Hashtbl.create 256
let alloc_next = ref 0
let alloc_lock = Mutex.create ()

let alloc_address fname sid =
  Mutex.protect alloc_lock (fun () ->
      match Hashtbl.find_opt alloc_addrs (fname, sid) with
      | Some a -> a
      | None ->
        incr alloc_next;
        let a = 1_000_000 + !alloc_next in
        Hashtbl.add alloc_addrs (fname, sid) a;
        a)

let reserve_addresses (funcs : Func.t list) =
  List.iter
    (fun (f : Func.t) ->
      Func.iter_stmts f (fun _blk s ->
          match s.Stmt.kind with
          | Stmt.Alloc _ -> ignore (alloc_address f.Func.fname s.Stmt.sid)
          | _ -> ()))
    funcs

let true_res = { f = E.tru; params = Var.Set.empty; recvs = [] }

let merge_res a b =
  if a == true_res then b
  else if b == true_res then a
  else
    {
      f = E.and_ a.f b.f;
      params = Var.Set.union a.params b.params;
      recvs =
        a.recvs
        @ List.filter
            (fun r -> not (List.exists (fun r' -> Var.equal r'.rvar r.rvar) a.recvs))
            b.recvs;
    }

let with_f res f = { res with f = E.and_ res.f f }

let add_edge t src e =
  let cur = Option.value (Var.Tbl.find_opt t.succ src) ~default:[] in
  Var.Tbl.replace t.succ src (e :: cur);
  let cur = Option.value (Var.Tbl.find_opt t.pred e.dst) ~default:[] in
  Var.Tbl.replace t.pred e.dst ({ e with dst = src } :: cur)

let register_sym t (v : Var.t) = Hashtbl.replace t.sym2var (Var.symbol v) v

let build (f : Func.t) (pta : Pta.t) : t =
  let t =
    {
      func = f;
      pta;
      cdg = Cdg.compute f;
      succ = Var.Tbl.create 64;
      pred = Var.Tbl.create 64;
      all_uses = [];
      use_tbl = Var.Tbl.create 64;
      def_tbl = Func.def_table f;
      block_of = Func.block_of_stmt f;
      sym2var = Hashtbl.create 64;
      dd_memo = Var.Tbl.create 64;
      cd_block_memo = Hashtbl.create 16;
      n_control_edges = 0;
      lock = Mutex.create ();
    }
  in
  List.iter (register_sym t) f.Func.params;
  List.iter (fun (i : Pta.incoming) -> register_sym t i.Pta.ivar) pta.Pta.incomings;
  let uses = ref [] in
  let add_use u = uses := u :: !uses in
  let copy_of_operand dstv cond = function
    | Stmt.Ovar u -> add_edge t u { dst = dstv; cond; kind = Copy }
    | _ -> ()
  in
  let operand_edge dstv = function
    | Stmt.Ovar u -> add_edge t u { dst = dstv; cond = E.tru; kind = Operand }
    | _ -> ()
  in
  Func.iter_stmts f (fun _blk s ->
      List.iter (register_sym t) (Stmt.def s);
      List.iter (register_sym t) (Stmt.uses s);
      match s.Stmt.kind with
      | Stmt.Assign (v, o) -> copy_of_operand v E.tru o
      | Stmt.Phi (v, args) ->
        List.iter
          (fun (a : Stmt.phi_arg) ->
            let gate = Option.value a.Stmt.gate ~default:E.tru in
            copy_of_operand v gate a.Stmt.src)
          args
      | Stmt.Binop (v, _, a, b) ->
        operand_edge v a;
        operand_edge v b
      | Stmt.Unop (v, _, a) -> operand_edge v a
      | Stmt.Load (v, base, k) ->
        (* Conduit loads (Aux actuals at call sites, Aux returns at the
           exit) are synthetic bookkeeping, not program dereferences. *)
        let is_conduit =
          match v.Var.kind with
          | Var.Aux_actual _ | Var.Aux_return _ -> true
          | _ -> false
        in
        (match base with
        | Stmt.Ovar p when not is_conduit ->
          add_use { uvar = p; sid = s.Stmt.sid; ukind = Deref k }
        | _ -> ());
        let entries =
          Option.value (Hashtbl.find_opt pta.Pta.load_res s.Stmt.sid) ~default:[]
        in
        List.iter (fun (e : Pta.entry) -> copy_of_operand v e.Pta.cond e.Pta.value) entries
      | Stmt.Store (base, k, value) -> (
        (* Conduit stores (entry seeds, call-site receivers) likewise. *)
        let is_conduit =
          match value with
          | Stmt.Ovar u -> (
            match u.Var.kind with
            | Var.Aux_formal _ | Var.Aux_receiver _ -> true
            | _ -> false)
          | _ -> false
        in
        match base with
        | Stmt.Ovar p when not is_conduit ->
          add_use { uvar = p; sid = s.Stmt.sid; ukind = Deref k }
        | _ -> ())
      | Stmt.Alloc _ -> ()
      | Stmt.Call c ->
        List.iteri
          (fun i arg ->
            match arg with
            | Stmt.Ovar u ->
              add_use
                {
                  uvar = u;
                  sid = s.Stmt.sid;
                  ukind = Call_arg { callee = c.Stmt.callee; arg_index = i };
                }
            | _ -> ())
          c.Stmt.args
      | Stmt.Return ops ->
        List.iteri
          (fun i op ->
            match op with
            | Stmt.Ovar u -> add_use { uvar = u; sid = s.Stmt.sid; ukind = Ret_op i }
            | _ -> ())
          ops);
  (* Count control-dependence edges for the size metrics. *)
  Func.iter_blocks f (fun blk ->
      t.n_control_edges <-
        t.n_control_edges
        + (List.length (Cdg.deps_of_block t.cdg blk.Func.bid)
          * List.length blk.Func.stmts));
  let t = { t with all_uses = List.rev !uses } in
  List.iter
    (fun u ->
      let cur = Option.value (Var.Tbl.find_opt t.use_tbl u.uvar) ~default:[] in
      Var.Tbl.replace t.use_tbl u.uvar (u :: cur))
    t.all_uses;
  t

(* Deterministically discard part of the graph (fault injection): keep a
   [keep] fraction of every vertex's out-edges and of the use list, rebuild
   the predecessor table from what survives, and start with fresh memo
   tables.  Losing edges only removes value-flow paths, so a truncated SEG
   yields fewer reports, never spurious ones. *)
let truncate t ~keep =
  let keep = Float.max 0.0 (Float.min 1.0 keep) in
  let keep_n n = int_of_float (ceil (keep *. float_of_int n)) in
  let prefix l = List.filteri (fun i _ -> i < keep_n (List.length l)) l in
  let succ = Var.Tbl.create 64 in
  let pred = Var.Tbl.create 64 in
  Var.Tbl.iter
    (fun src es ->
      let es = prefix es in
      if es <> [] then begin
        Var.Tbl.replace succ src es;
        List.iter
          (fun e ->
            let cur = Option.value (Var.Tbl.find_opt pred e.dst) ~default:[] in
            Var.Tbl.replace pred e.dst ({ e with dst = src } :: cur))
          es
      end)
    t.succ;
  let all_uses = prefix t.all_uses in
  let use_tbl = Var.Tbl.create 64 in
  List.iter
    (fun u ->
      let cur = Option.value (Var.Tbl.find_opt use_tbl u.uvar) ~default:[] in
      Var.Tbl.replace use_tbl u.uvar (u :: cur))
    all_uses;
  {
    t with
    succ;
    pred;
    all_uses;
    use_tbl;
    dd_memo = Var.Tbl.create 64;
    cd_block_memo = Hashtbl.create 16;
    lock = Mutex.create ();
  }

let succs t v = Option.value (Var.Tbl.find_opt t.succ v) ~default:[]
let preds t v = Option.value (Var.Tbl.find_opt t.pred v) ~default:[]
let uses t = t.all_uses
let uses_of t v = Option.value (Var.Tbl.find_opt t.use_tbl v) ~default:[]
let def_of t v = Var.Tbl.find_opt t.def_tbl v
let var_of_symbol t s = Hashtbl.find_opt t.sym2var s

(* --- DD and CD queries (§3.2.2) --- *)

let rec dd t (v : Var.t) : cres =
  match Var.Tbl.find_opt t.dd_memo v with
  | Some r -> r
  | None ->
    (* Break cycles defensively (SSA over a DAG has none, but a malformed
       function should not hang the analysis). *)
    Var.Tbl.replace t.dd_memo v true_res;
    let r = dd_uncached t v in
    Var.Tbl.replace t.dd_memo v r;
    r

and dd_uncached t (v : Var.t) : cres =
  if Var.is_interface v then { true_res with params = Var.Set.singleton v }
  else
    match Var.Tbl.find_opt t.def_tbl v with
    | None -> true_res (* incoming / undefined: free *)
    | Some s -> (
      let vterm = Var.term v in
      match s.Stmt.kind with
      | Stmt.Assign (_, o) ->
        with_f (dd_operand t o) (E.eq vterm (Stmt.operand_term o))
      | Stmt.Binop (_, op, a, b) ->
        let expr = Ops.apply_binop op (Stmt.operand_term a) (Stmt.operand_term b) in
        with_f
          (merge_res (dd_operand t a) (dd_operand t b))
          (if Var.symbol v |> Sym.sort = Sym.Bool then
             E.and_ (E.implies vterm expr) (E.implies expr vterm)
           else E.eq vterm expr)
      | Stmt.Unop (_, op, a) ->
        let expr = Ops.apply_unop op (Stmt.operand_term a) in
        with_f (dd_operand t a)
          (if Var.symbol v |> Sym.sort = Sym.Bool then
             E.and_ (E.implies vterm expr) (E.implies expr vterm)
           else E.eq vterm expr)
      | Stmt.Phi (_, args) ->
        List.fold_left
          (fun acc (a : Stmt.phi_arg) ->
            let gate = Option.value a.Stmt.gate ~default:E.tru in
            let acc = with_f acc (E.implies gate (E.eq vterm (Stmt.operand_term a.Stmt.src))) in
            let acc = merge_res acc (dd_formula_vars t gate) in
            merge_res acc (dd_operand t a.Stmt.src))
          true_res args
      | Stmt.Load (_, _, _) ->
        let entries =
          Option.value (Hashtbl.find_opt t.pta.Pta.load_res s.Stmt.sid) ~default:[]
        in
        List.fold_left
          (fun acc (e : Pta.entry) ->
            let acc =
              with_f acc
                (E.implies e.Pta.cond (E.eq vterm (Stmt.operand_term e.Pta.value)))
            in
            let acc = merge_res acc (dd_formula_vars t e.Pta.cond) in
            merge_res acc (dd_operand t e.Pta.value))
          true_res entries
      | Stmt.Alloc _ ->
        {
          true_res with
          f = E.eq vterm (E.int (alloc_address t.func.Func.fname s.Stmt.sid));
        }
      | Stmt.Call c ->
        let ret_index =
          let rec idx i = function
            | [] -> -1
            | r :: rest -> if Var.equal r v then i else idx (i + 1) rest
          in
          idx 0 c.Stmt.recvs
        in
        {
          true_res with
          recvs =
            [
              {
                rvar = v;
                call_sid = s.Stmt.sid;
                callee = c.Stmt.callee;
                ret_index;
                args = c.Stmt.args;
              };
            ];
        }
      | Stmt.Store _ | Stmt.Return _ -> true_res)

and dd_operand t = function
  | Stmt.Ovar u -> dd t u
  | Stmt.Oint _ | Stmt.Obool _ | Stmt.Onull -> true_res

and dd_formula_vars t (e : E.t) : cres =
  List.fold_left
    (fun acc sym ->
      match var_of_symbol t sym with
      | Some v -> merge_res acc (dd t v)
      | None -> acc)
    true_res (E.vars e)

let dd_expr t e = dd_formula_vars t e

let rec cd_block t (b : int) : cres =
  match Hashtbl.find_opt t.cd_block_memo b with
  | Some r -> r
  | None ->
    Hashtbl.replace t.cd_block_memo b true_res;
    let deps = Cdg.deps_of_block t.cdg b in
    let r =
      List.fold_left
        (fun acc (d : Cdg.dep) ->
          let cterm = Stmt.operand_term d.Cdg.cond in
          let lit = if d.Cdg.polarity then cterm else E.not_ cterm in
          let acc = with_f acc lit in
          let acc = merge_res acc (dd_formula_vars t cterm) in
          merge_res acc (cd_block t d.Cdg.branch_block))
        true_res deps
    in
    Hashtbl.replace t.cd_block_memo b r;
    r

let cd_stmt t sid =
  match Hashtbl.find_opt t.block_of sid with
  | Some b -> cd_block t b
  | None -> true_res

(* Like cd_block, but separating the branch literals from the defining
   facts of the branch variables. *)
let rec cd_block_split t (b : int) : E.t * cres =
  let deps = Cdg.deps_of_block t.cdg b in
  List.fold_left
    (fun (lits, facts) (d : Cdg.dep) ->
      let cterm = Stmt.operand_term d.Cdg.cond in
      let lit = if d.Cdg.polarity then cterm else E.not_ cterm in
      let facts = merge_res facts (dd_formula_vars t cterm) in
      let lits', facts' = cd_block_split t d.Cdg.branch_block in
      (E.and_ (E.and_ lits lit) lits', merge_res facts facts'))
    (E.tru, true_res) deps

let cd_stmt_split t sid =
  match Hashtbl.find_opt t.block_of sid with
  | Some b -> cd_block_split t b
  | None -> (E.tru, true_res)

(* Locked public entry points (shadow the unlocked definitions above):
   one lock per seg, taken once per query, recursion runs lock-held. *)
let dd t v = Mutex.protect t.lock (fun () -> dd t v)
let dd_expr t e = Mutex.protect t.lock (fun () -> dd_expr t e)
let cd_stmt t sid = Mutex.protect t.lock (fun () -> cd_stmt t sid)
let cd_stmt_split t sid = Mutex.protect t.lock (fun () -> cd_stmt_split t sid)

let n_vertices t =
  (* variable vertices + use vertices (the v@s occurrences) *)
  Var.Tbl.length t.succ + List.length t.all_uses
  + List.length t.func.Func.params

let n_edges t =
  Var.Tbl.fold (fun _ es acc -> acc + List.length es) t.succ 0
  + t.n_control_edges

let dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "digraph seg_%s {\n  rankdir=BT;\n  node [shape=ellipse];\n"
       t.func.Func.fname);
  Var.Tbl.iter
    (fun (src : Var.t) es ->
      List.iter
        (fun e ->
          let label = if E.is_true e.cond then "" else E.to_string e.cond in
          Buffer.add_string buf
            (Printf.sprintf "  \"%s\" -> \"%s\" [label=\"%s\"%s];\n" src.Var.name
               e.dst.Var.name
               (Pinpoint_util.Pp.quote label)
               (match e.kind with Operand -> ", style=dashed" | Copy -> "")))
        es)
    t.succ;
  List.iter
    (fun u ->
      let d =
        match u.ukind with
        | Deref k -> Printf.sprintf "deref%d@s%d" k u.sid
        | Call_arg { callee; arg_index } ->
          Printf.sprintf "%s.arg%d@s%d" callee arg_index u.sid
        | Ret_op i -> Printf.sprintf "ret%d@s%d" i u.sid
      in
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\" -> \"%s\" [style=dotted];\n" u.uvar.Var.name d))
    t.all_uses;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
