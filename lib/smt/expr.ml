type t = { id : int; skey : int; node : node }

and node =
  | True
  | False
  | Int of int
  | Var of Symbol.t
  | Not of t
  | And of t * t
  | Or of t * t
  | Eq of t * t
  | Ne of t * t
  | Lt of t * t
  | Le of t * t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Neg of t

let equal a b = a.id = b.id
let compare a b = Int.compare a.id b.id
let hash a = a.id

(* Structural keys used for hash-consing: children are identified by id. *)
type key =
  | KTrue
  | KFalse
  | KInt of int
  | KVar of int
  | KNot of int
  | KAnd of int * int
  | KOr of int * int
  | KEq of int * int
  | KNe of int * int
  | KLt of int * int
  | KLe of int * int
  | KAdd of int * int
  | KSub of int * int
  | KMul of int * int
  | KNeg of int

let key_of = function
  | True -> KTrue
  | False -> KFalse
  | Int n -> KInt n
  | Var v -> KVar v
  | Not a -> KNot a.id
  | And (a, b) -> KAnd (a.id, b.id)
  | Or (a, b) -> KOr (a.id, b.id)
  | Eq (a, b) -> KEq (a.id, b.id)
  | Ne (a, b) -> KNe (a.id, b.id)
  | Lt (a, b) -> KLt (a.id, b.id)
  | Le (a, b) -> KLe (a.id, b.id)
  | Add (a, b) -> KAdd (a.id, b.id)
  | Sub (a, b) -> KSub (a.id, b.id)
  | Mul (a, b) -> KMul (a.id, b.id)
  | Neg a -> KNeg a.id

(* Structural rank of a node: a hash over node kinds, constants, symbol
   names/sorts and children's ranks — everything {e except} allocation
   order.  Node ids are allocation-ordered and thus schedule-dependent once
   several domains intern concurrently, so formula structure must never
   depend on them; [ordered] below canonicalises commutative operands by
   this rank instead, which is identical on every run and at every [--jobs]
   level. *)
let skey_of = function
  | True -> Hashtbl.hash 0
  | False -> Hashtbl.hash 1
  | Int n -> Hashtbl.hash (2, n)
  | Var v -> Hashtbl.hash (3, Symbol.name v, Symbol.sort v)
  | Not a -> Hashtbl.hash (4, a.skey)
  | And (a, b) -> Hashtbl.hash (5, a.skey, b.skey)
  | Or (a, b) -> Hashtbl.hash (6, a.skey, b.skey)
  | Eq (a, b) -> Hashtbl.hash (7, a.skey, b.skey)
  | Ne (a, b) -> Hashtbl.hash (8, a.skey, b.skey)
  | Lt (a, b) -> Hashtbl.hash (9, a.skey, b.skey)
  | Le (a, b) -> Hashtbl.hash (10, a.skey, b.skey)
  | Add (a, b) -> Hashtbl.hash (11, a.skey, b.skey)
  | Sub (a, b) -> Hashtbl.hash (12, a.skey, b.skey)
  | Mul (a, b) -> Hashtbl.hash (13, a.skey, b.skey)
  | Neg a -> Hashtbl.hash (14, a.skey)

(* The hash-cons table is global and shared by every domain, so interning
   is serialised by a mutex.  Ids are used only for equality, hashing and
   memo keys — never for structure (see [skey_of] above).

   The table holds its elements weakly: a formula nothing else references
   — e.g. one that belonged only to functions the analysis server has
   since re-lowered, dropping their SEGs and summaries — is collected, and
   a later re-intern of the same structure builds a fresh, structurally
   identical node.  A long-running server thus does not accumulate the
   formulas of superseded function bodies.  Equality and hashing go
   through [key_of], which identifies children by id, so only candidates
   whose children are already canonical can merge (the hash-consing
   invariant), and both are stable for as long as an element is alive
   (children are strongly referenced by their parent).  Ids are never
   reused — the counter only advances on a real insertion — so stale
   id-keyed memo entries can dangle but never alias. *)
module Weak_tbl = Weak.Make (struct
  type nonrec t = t

  let equal a b = key_of a.node = key_of b.node
  let hash e = Hashtbl.hash (key_of e.node)
end)

let table = Weak_tbl.create 4096
let counter = ref 0
let lock = Mutex.create ()

let make node =
  Mutex.protect lock (fun () ->
      let candidate = { id = !counter; skey = skey_of node; node } in
      let e = Weak_tbl.merge table candidate in
      if e == candidate then incr counter;
      e)

let n_created () = !counter
let tru = make True
let fls = make False
let bool b = if b then tru else fls
let int n = make (Int n)
let var v = make (Var v)
let is_true e = e.node = True
let is_false e = e.node = False

(* Commutative operators order their operands by structural rank so that
   [a op b] and [b op a] share a node.  On a rank tie (hash collision, or
   same-named symbols) construction order is kept, which is itself
   deterministic — so the canonical form is identical on every run and at
   every [--jobs] level, unlike the previous id-based ordering. *)
let ordered a b = if a.skey <= b.skey then (a, b) else (b, a)

let sort_of e =
  match e.node with
  | True | False | Not _ | And _ | Or _ | Eq _ | Ne _ | Lt _ | Le _ -> Symbol.Bool
  | Int _ | Add _ | Sub _ | Mul _ | Neg _ -> Symbol.Int
  | Var v -> Symbol.sort v

let is_bool e = sort_of e = Symbol.Bool

let rec not_ e =
  match e.node with
  | True -> fls
  | False -> tru
  | Not a -> a
  | Lt (a, b) -> le b a
  | Le (a, b) -> lt b a
  | Eq (a, b) -> ne a b
  | Ne (a, b) -> eq a b
  | _ -> make (Not e)

and and_ a b =
  if is_false a || is_false b then fls
  else if is_true a then b
  else if is_true b then a
  else if equal a b then a
  else if (match a.node with Not x -> equal x b | _ -> false) then fls
  else if (match b.node with Not x -> equal x a | _ -> false) then fls
  else
    let a, b = ordered a b in
    make (And (a, b))

and or_ a b =
  if is_true a || is_true b then tru
  else if is_false a then b
  else if is_false b then a
  else if equal a b then a
  else if (match a.node with Not x -> equal x b | _ -> false) then tru
  else if (match b.node with Not x -> equal x a | _ -> false) then tru
  else
    (* Absorption: a ∨ (a ∧ c) = a. *)
    match (a.node, b.node) with
    | _, And (x, y) when equal a x || equal a y -> a
    | And (x, y), _ when equal b x || equal b y -> b
    (* Factoring: (p ∧ q) ∨ (p ∧ r) = p ∧ (q ∨ r); keeps φ gates compact. *)
    | And (x1, y1), And (x2, y2) when equal x1 x2 -> and_ x1 (or_ y1 y2)
    | And (x1, y1), And (x2, y2) when equal x1 y2 -> and_ x1 (or_ y1 x2)
    | And (x1, y1), And (x2, y2) when equal y1 x2 -> and_ y1 (or_ x1 y2)
    | And (x1, y1), And (x2, y2) when equal y1 y2 -> and_ y1 (or_ x1 x2)
    | _ ->
      let a, b = ordered a b in
      make (Or (a, b))

and eq a b =
  if equal a b then tru
  else
    match (a.node, b.node) with
    | Int x, Int y -> bool (x = y)
    | True, True | False, False -> tru
    | True, False | False, True -> fls
    | _ when is_bool a && is_bool b ->
      (* Boolean equality is an iff, so the SAT core can reason about it
         (a ≡ b  ⇔  (a ∧ b) ∨ (¬a ∧ ¬b)). *)
      or_ (and_ a b) (and_ (not_ a) (not_ b))
    | _ ->
      let a, b = ordered a b in
      make (Eq (a, b))

and ne a b =
  if equal a b then fls
  else
    match (a.node, b.node) with
    | Int x, Int y -> bool (x <> y)
    | True, True | False, False -> fls
    | True, False | False, True -> tru
    | _ when is_bool a && is_bool b ->
      or_ (and_ a (not_ b)) (and_ (not_ a) b)
    | _ ->
      let a, b = ordered a b in
      make (Ne (a, b))

and lt a b =
  if equal a b then fls
  else
    match (a.node, b.node) with
    | Int x, Int y -> bool (x < y)
    | _ -> make (Lt (a, b))

and le a b =
  if equal a b then tru
  else
    match (a.node, b.node) with
    | Int x, Int y -> bool (x <= y)
    | _ -> make (Le (a, b))

let gt a b = lt b a
let ge a b = le b a
let implies a b = or_ (not_ a) b
let conj l = List.fold_left and_ tru l
let disj l = List.fold_left or_ fls l

(* Balanced n-ary connectives.  The left folds above build a left-deep
   comb, so the same conjunct set reached in a different order never shares
   a node with a previous build — [ordered] only canonicalises a single
   binary application.  Sorting the (deduplicated) operands by structural
   rank and folding them as a tree yields one canonical shape per operand
   multiset: schedule-independent (skey never looks at allocation order;
   ties keep list order, which callers derive from program order) and
   logarithmic depth, which also keeps the Tseitin encoding shallow. *)
let balanced app unit l =
  let seen = Hashtbl.create 16 in
  let ops =
    List.filter
      (fun e ->
        (not (Hashtbl.mem seen e.id)) && (Hashtbl.add seen e.id (); true))
      l
  in
  let ops = List.stable_sort (fun a b -> Int.compare a.skey b.skey) ops in
  let rec pairs = function
    | [] -> []
    | [ x ] -> [ x ]
    | a :: b :: rest -> app a b :: pairs rest
  in
  let rec go = function [] -> unit | [ x ] -> x | l -> go (pairs l) in
  go ops

let conj_balanced l = balanced and_ tru l
let disj_balanced l = balanced or_ fls l

let add a b =
  match (a.node, b.node) with
  | Int x, Int y -> int (x + y)
  | Int 0, _ -> b
  | _, Int 0 -> a
  | _ ->
    let a, b = ordered a b in
    make (Add (a, b))

let sub a b =
  match (a.node, b.node) with
  | Int x, Int y -> int (x - y)
  | _, Int 0 -> a
  | _ -> if equal a b then int 0 else make (Sub (a, b))

let mul a b =
  match (a.node, b.node) with
  | Int x, Int y -> int (x * y)
  | Int 0, _ | _, Int 0 -> int 0
  | Int 1, _ -> b
  | _, Int 1 -> a
  | _ ->
    let a, b = ordered a b in
    make (Mul (a, b))

let neg a = match a.node with Int x -> int (-x) | Neg x -> x | _ -> make (Neg a)

let atoms e =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let rec go e =
    if not (Hashtbl.mem seen e.id) then begin
      Hashtbl.add seen e.id ();
      match e.node with
      | True | False -> ()
      | Not a -> go a
      | And (a, b) | Or (a, b) ->
        go a;
        go b
      | Var v -> if Symbol.sort v = Symbol.Bool then acc := e :: !acc
      | Eq _ | Ne _ | Lt _ | Le _ -> acc := e :: !acc
      | Int _ | Add _ | Sub _ | Mul _ | Neg _ -> ()
    end
  in
  go e;
  List.rev !acc

let vars e =
  let seen = Hashtbl.create 64 in
  let vs = Hashtbl.create 16 in
  let acc = ref [] in
  let rec go e =
    if not (Hashtbl.mem seen e.id) then begin
      Hashtbl.add seen e.id ();
      match e.node with
      | Var v ->
        if not (Hashtbl.mem vs v) then begin
          Hashtbl.add vs v ();
          acc := v :: !acc
        end
      | True | False | Int _ -> ()
      | Not a | Neg a -> go a
      | And (a, b) | Or (a, b) | Eq (a, b) | Ne (a, b) | Lt (a, b) | Le (a, b)
      | Add (a, b) | Sub (a, b) | Mul (a, b) ->
        go a;
        go b
    end
  in
  go e;
  List.rev !acc

let size e =
  let seen = Hashtbl.create 64 in
  let n = ref 0 in
  let rec go e =
    if not (Hashtbl.mem seen e.id) then begin
      Hashtbl.add seen e.id ();
      incr n;
      match e.node with
      | True | False | Int _ | Var _ -> ()
      | Not a | Neg a -> go a
      | And (a, b) | Or (a, b) | Eq (a, b) | Ne (a, b) | Lt (a, b) | Le (a, b)
      | Add (a, b) | Sub (a, b) | Mul (a, b) ->
        go a;
        go b
    end
  in
  go e;
  !n

let subst f e =
  let memo = Hashtbl.create 64 in
  let rec go e =
    match Hashtbl.find_opt memo e.id with
    | Some r -> r
    | None ->
      let r =
        match e.node with
        | True | False | Int _ -> e
        | Var v -> ( match f v with Some r -> r | None -> e)
        | Not a -> not_ (go a)
        | Neg a -> neg (go a)
        | And (a, b) -> and_ (go a) (go b)
        | Or (a, b) -> or_ (go a) (go b)
        | Eq (a, b) -> eq (go a) (go b)
        | Ne (a, b) -> ne (go a) (go b)
        | Lt (a, b) -> lt (go a) (go b)
        | Le (a, b) -> le (go a) (go b)
        | Add (a, b) -> add (go a) (go b)
        | Sub (a, b) -> sub (go a) (go b)
        | Mul (a, b) -> mul (go a) (go b)
      in
      Hashtbl.add memo e.id r;
      r
  in
  go e

type value = VBool of bool | VInt of int

let eval env e =
  let memo = Hashtbl.create 64 in
  let as_bool = function
    | VBool b -> b
    | VInt _ -> invalid_arg "Expr.eval: expected bool"
  in
  let as_int = function
    | VInt n -> n
    | VBool _ -> invalid_arg "Expr.eval: expected int"
  in
  let rec go e =
    match Hashtbl.find_opt memo e.id with
    | Some v -> v
    | None ->
      let v =
        match e.node with
        | True -> VBool true
        | False -> VBool false
        | Int n -> VInt n
        | Var v -> env v
        | Not a -> VBool (not (as_bool (go a)))
        | And (a, b) -> VBool (as_bool (go a) && as_bool (go b))
        | Or (a, b) -> VBool (as_bool (go a) || as_bool (go b))
        | Eq (a, b) -> VBool (go a = go b)
        | Ne (a, b) -> VBool (go a <> go b)
        | Lt (a, b) -> VBool (as_int (go a) < as_int (go b))
        | Le (a, b) -> VBool (as_int (go a) <= as_int (go b))
        | Add (a, b) -> VInt (as_int (go a) + as_int (go b))
        | Sub (a, b) -> VInt (as_int (go a) - as_int (go b))
        | Mul (a, b) -> VInt (as_int (go a) * as_int (go b))
        | Neg a -> VInt (-as_int (go a))
      in
      Hashtbl.add memo e.id v;
      v
  in
  go e

let rec pp ppf e =
  match e.node with
  | True -> Format.pp_print_string ppf "true"
  | False -> Format.pp_print_string ppf "false"
  | Int n -> Format.pp_print_int ppf n
  | Var v -> Symbol.pp ppf v
  | Not a -> Format.fprintf ppf "!(%a)" pp a
  | And (a, b) -> Format.fprintf ppf "(%a && %a)" pp a pp b
  | Or (a, b) -> Format.fprintf ppf "(%a || %a)" pp a pp b
  | Eq (a, b) -> Format.fprintf ppf "(%a == %a)" pp a pp b
  | Ne (a, b) -> Format.fprintf ppf "(%a != %a)" pp a pp b
  | Lt (a, b) -> Format.fprintf ppf "(%a < %a)" pp a pp b
  | Le (a, b) -> Format.fprintf ppf "(%a <= %a)" pp a pp b
  | Add (a, b) -> Format.fprintf ppf "(%a + %a)" pp a pp b
  | Sub (a, b) -> Format.fprintf ppf "(%a - %a)" pp a pp b
  | Mul (a, b) -> Format.fprintf ppf "(%a * %a)" pp a pp b
  | Neg a -> Format.fprintf ppf "(-%a)" pp a

let to_string e = Format.asprintf "%a" pp e
