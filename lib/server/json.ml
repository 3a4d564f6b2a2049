(* A minimal JSON codec for the analysis server's newline-delimited
   protocol (DESIGN.md §4.13).  The container has no JSON library and the
   protocol needs none: objects, arrays, strings, numbers, booleans and
   null, parsed strictly (one value per line, trailing garbage rejected).

   Numbers are kept as [Int] when they are exact integers and [Float]
   otherwise; [number] accepts both, so clients may write "5" or "5.0"
   for a deadline. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ---------- printing ---------- *)

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.1f" f)
    else if Float.is_finite f then
      Buffer.add_string buf (Printf.sprintf "%.17g" f)
    else Buffer.add_string buf "null" (* inf/nan have no JSON spelling *)
  | String s ->
    Buffer.add_char buf '"';
    escape buf s;
    Buffer.add_char buf '"'
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        write buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        escape buf k;
        Buffer.add_string buf "\":";
        write buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* ---------- parsing ---------- *)

type cursor = { s : string; mutable i : int }

let fail msg = raise (Parse_error msg)

let peek c = if c.i < String.length c.s then Some c.s.[c.i] else None

let skip_ws c =
  while
    c.i < String.length c.s
    && match c.s.[c.i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.i <- c.i + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.i <- c.i + 1
  | _ -> fail (Printf.sprintf "expected '%c' at offset %d" ch c.i)

let literal c word v =
  let n = String.length word in
  if c.i + n <= String.length c.s && String.sub c.s c.i n = word then begin
    c.i <- c.i + n;
    v
  end
  else fail (Printf.sprintf "bad literal at offset %d" c.i)

(* \uXXXX escapes are decoded to UTF-8 bytes; surrogate pairs are decoded
   when both halves are present. *)
let utf8_of_code buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let hex4 c =
  if c.i + 4 > String.length c.s then fail "truncated \\u escape";
  let digit ch =
    match ch with
    | '0' .. '9' -> Char.code ch - Char.code '0'
    | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
    | _ -> fail (Printf.sprintf "bad \\u escape at offset %d" c.i)
  in
  let v = ref 0 in
  for k = 0 to 3 do
    v := (!v lsl 4) lor digit c.s.[c.i + k]
  done;
  c.i <- c.i + 4;
  !v

let parse_string_body c =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail "unterminated string"
    | Some '"' -> c.i <- c.i + 1
    | Some '\\' ->
      c.i <- c.i + 1;
      (match peek c with
      | Some '"' -> Buffer.add_char buf '"'; c.i <- c.i + 1
      | Some '\\' -> Buffer.add_char buf '\\'; c.i <- c.i + 1
      | Some '/' -> Buffer.add_char buf '/'; c.i <- c.i + 1
      | Some 'b' -> Buffer.add_char buf '\b'; c.i <- c.i + 1
      | Some 'f' -> Buffer.add_char buf '\012'; c.i <- c.i + 1
      | Some 'n' -> Buffer.add_char buf '\n'; c.i <- c.i + 1
      | Some 'r' -> Buffer.add_char buf '\r'; c.i <- c.i + 1
      | Some 't' -> Buffer.add_char buf '\t'; c.i <- c.i + 1
      | Some 'u' ->
        c.i <- c.i + 1;
        let u = hex4 c in
        let u =
          if u >= 0xD800 && u <= 0xDBFF
             && c.i + 2 <= String.length c.s
             && c.s.[c.i] = '\\'
             && c.i + 1 < String.length c.s
             && c.s.[c.i + 1] = 'u'
          then begin
            c.i <- c.i + 2;
            let lo = hex4 c in
            0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
          end
          else u
        in
        utf8_of_code buf u
      | _ -> fail "bad escape");
      go ()
    | Some ch ->
      Buffer.add_char buf ch;
      c.i <- c.i + 1;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.i in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while c.i < String.length c.s && is_num_char c.s.[c.i] do
    c.i <- c.i + 1
  done;
  let text = String.sub c.s start (c.i - start) in
  match int_of_string_opt text with
  | Some i -> Int i
  | None -> (
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail (Printf.sprintf "bad number %S" text))

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail "unexpected end of input"
  | Some '{' ->
    c.i <- c.i + 1;
    skip_ws c;
    if peek c = Some '}' then begin
      c.i <- c.i + 1;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws c;
        expect c '"';
        let k = parse_string_body c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.i <- c.i + 1;
          members ((k, v) :: acc)
        | Some '}' ->
          c.i <- c.i + 1;
          List.rev ((k, v) :: acc)
        | _ -> fail "expected ',' or '}'"
      in
      Obj (members [])
    end
  | Some '[' ->
    c.i <- c.i + 1;
    skip_ws c;
    if peek c = Some ']' then begin
      c.i <- c.i + 1;
      List []
    end
    else begin
      let rec elems acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.i <- c.i + 1;
          elems (v :: acc)
        | Some ']' ->
          c.i <- c.i + 1;
          List.rev (v :: acc)
        | _ -> fail "expected ',' or ']'"
      in
      List (elems [])
    end
  | Some '"' ->
    c.i <- c.i + 1;
    String (parse_string_body c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail (Printf.sprintf "unexpected character '%c'" ch)

let parse s =
  let c = { s; i = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.i <> String.length s then Error "trailing characters after value"
    else Ok v
  | exception Parse_error msg -> Error msg

(* ---------- accessors ---------- *)

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let string_opt = function String s -> Some s | _ -> None
let int_opt = function Int i -> Some i | _ -> None

let number_opt = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let bool_opt = function Bool b -> Some b | _ -> None
let list_opt = function List xs -> Some xs | _ -> None
