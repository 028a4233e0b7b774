type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of int * string

(* Recursive descent over a string with an explicit cursor.  Depth is
   naturally bounded by the input size; the documents this repo emits
   are shallow.  The scanner reads bytes by index and allocates only
   the values it returns: a string is copied out of the source once. *)
type state = { src : string; mutable pos : int }

let fail st msg = raise (Parse_error (st.pos, msg))

let at_end st = st.pos >= String.length st.src

(* The byte under the cursor; callers check [at_end] first. *)
let cur st = String.unsafe_get st.src st.pos

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let src = st.src in
  let n = String.length src in
  let i = ref st.pos in
  while
    !i < n
    && match String.unsafe_get src !i with
       | ' ' | '\t' | '\n' | '\r' -> true
       | _ -> false
  do
    incr i
  done;
  st.pos <- !i

let expect st c =
  if at_end st then fail st (Printf.sprintf "expected '%c', found end of input" c)
  else if cur st = c then advance st
  else fail st (Printf.sprintf "expected '%c', found '%c'" c (cur st))

let literal st word value =
  let n = String.length word in
  let matches = ref (st.pos + n <= String.length st.src) and j = ref 0 in
  while !matches && !j < n do
    matches := String.unsafe_get st.src (st.pos + !j) = String.unsafe_get word !j;
    incr j
  done;
  if !matches then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st ("expected " ^ word)

let hex_digit st c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail st "invalid hex digit in \\u escape"

(* Encode a code point as UTF-8.  Lone or paired surrogates are mapped
   to U+FFFD — the writers in this repo never emit them. *)
let add_utf8 buf cp =
  let cp = if cp >= 0xD800 && cp <= 0xDFFF then 0xFFFD else cp in
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

(* The end of the run of plain string bytes (no quote, backslash or
   control byte) that starts at [i]. *)
let plain_end src i =
  let n = String.length src in
  let i = ref i in
  while
    !i < n
    &&
    let c = String.unsafe_get src !i in
    c <> '"' && c <> '\\' && Char.code c >= 0x20
  do
    incr i
  done;
  !i

let parse_string st =
  expect st '"';
  let src = st.src in
  let n = String.length src in
  let start = st.pos in
  let run = plain_end src start in
  if run < n && String.unsafe_get src run = '"' then begin
    st.pos <- run + 1;
    String.sub src start (run - start)
  end
  else begin
    (* Escapes ahead.  Decoding never lengthens a string, so a buffer the
       size of the raw text up to the closing quote never grows. *)
    let close = ref run in
    while !close < n && String.unsafe_get src !close <> '"' do
      close := !close + if String.unsafe_get src !close = '\\' then 2 else 1
    done;
    let buf = Buffer.create (max 16 (min n !close - start)) in
    Buffer.add_substring buf src start (run - start);
    st.pos <- run;
    let fin = ref false in
    while not !fin do
      if at_end st then fail st "unterminated string";
      match cur st with
      | '"' ->
          advance st;
          fin := true
      | '\\' -> (
          advance st;
          if at_end st then fail st "unterminated escape";
          let c = cur st in
          advance st;
          match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
              if st.pos + 4 > n then fail st "truncated \\u escape";
              let cp = ref 0 in
              for _ = 1 to 4 do
                cp := (!cp * 16) + hex_digit st (cur st);
                advance st
              done;
              add_utf8 buf !cp
          | c -> fail st (Printf.sprintf "invalid escape '\\%c'" c))
      | c when Char.code c < 0x20 -> fail st "raw control byte in string"
      | _ ->
          let e = plain_end src st.pos in
          Buffer.add_substring buf src st.pos (e - st.pos);
          st.pos <- e
    done;
    Buffer.contents buf
  end

let parse_number st =
  let start = st.pos in
  let src = st.src in
  let n = String.length src in
  let digits () =
    while
      st.pos < n
      && match String.unsafe_get src st.pos with '0' .. '9' -> true | _ -> false
    do
      advance st
    done
  in
  let next_is c = st.pos < n && String.unsafe_get src st.pos = c in
  if next_is '-' then advance st;
  digits ();
  if next_is '.' then begin
    advance st;
    digits ()
  end;
  if next_is 'e' || next_is 'E' then begin
    advance st;
    if next_is '+' || next_is '-' then advance st;
    digits ()
  end;
  let text = String.sub src start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> f
  | None -> fail st ("invalid number: " ^ text)

let rec parse_value st =
  skip_ws st;
  if at_end st then fail st "unexpected end of input";
  match cur st with
  | '{' ->
      advance st;
      skip_ws st;
      if (not (at_end st)) && cur st = '}' then begin
        advance st;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws st;
          let key = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          if at_end st then fail st "expected ',' or '}' in object";
          match cur st with
          | ',' ->
              advance st;
              members ((key, v) :: acc)
          | '}' ->
              advance st;
              List.rev ((key, v) :: acc)
          | _ -> fail st "expected ',' or '}' in object"
        in
        Obj (members [])
      end
  | '[' ->
      advance st;
      skip_ws st;
      if (not (at_end st)) && cur st = ']' then begin
        advance st;
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value st in
          skip_ws st;
          if at_end st then fail st "expected ',' or ']' in array";
          match cur st with
          | ',' ->
              advance st;
              elements (v :: acc)
          | ']' ->
              advance st;
              List.rev (v :: acc)
          | _ -> fail st "expected ',' or ']' in array"
        in
        Arr (elements [])
      end
  | '"' -> Str (parse_string st)
  | 't' -> literal st "true" (Bool true)
  | 'f' -> literal st "false" (Bool false)
  | 'n' -> literal st "null" Null
  | '-' | '0' .. '9' -> Num (parse_number st)
  | c -> fail st (Printf.sprintf "unexpected character '%c'" c)

let parse s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos < String.length s then
        Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
      else Ok v
  | exception Parse_error (pos, msg) ->
      Error (Printf.sprintf "parse error at offset %d: %s" pos msg)

let parse_exn s =
  match parse s with Ok v -> v | Error msg -> failwith ("Json.parse: " ^ msg)

let of_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | contents -> parse contents
  | exception Sys_error msg -> Error msg

let member k = function
  | Obj members -> List.assoc_opt k members
  | _ -> None

let to_list = function Arr l -> Some l | _ -> None
let to_string = function Str s -> Some s | _ -> None
let to_float = function Num f -> Some f | _ -> None
let to_int = function Num f -> Some (int_of_float f) | _ -> None
let to_bool = function Bool b -> Some b | _ -> None

(* ---------------- writing ---------------- *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf
