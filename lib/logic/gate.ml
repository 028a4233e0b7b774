type t =
  | And
  | Or
  | Nand
  | Nor
  | Xor
  | Xnor
  | Not
  | Buf

let to_string = function
  | And -> "and"
  | Or -> "or"
  | Nand -> "nand"
  | Nor -> "nor"
  | Xor -> "xor"
  | Xnor -> "xnor"
  | Not -> "not"
  | Buf -> "buf"

let of_string = function
  | "and" -> Some And
  | "or" -> Some Or
  | "nand" -> Some Nand
  | "nor" -> Some Nor
  | "xor" -> Some Xor
  | "xnor" -> Some Xnor
  | "not" | "inv" -> Some Not
  | "buf" -> Some Buf
  | _ -> None

let arity_ok g n =
  match g with
  | Not | Buf -> n = 1
  | And | Or | Nand | Nor | Xor | Xnor -> n >= 1

let bad g n =
  invalid_arg
    (Printf.sprintf "Gate.eval: %s cannot have %d fanins" (to_string g) n)

let eval g inputs =
  let n = Array.length inputs in
  if not (arity_ok g n) then bad g n;
  match g with
  | And -> Array.for_all Fun.id inputs
  | Or -> Array.exists Fun.id inputs
  | Nand -> not (Array.for_all Fun.id inputs)
  | Nor -> not (Array.exists Fun.id inputs)
  | Xor -> Array.fold_left ( <> ) false inputs
  | Xnor -> not (Array.fold_left ( <> ) false inputs)
  | Not -> not inputs.(0)
  | Buf -> inputs.(0)

let eval64 g words =
  let n = Array.length words in
  if not (arity_ok g n) then bad g n;
  let all = -1L in
  match g with
  | And -> Array.fold_left Int64.logand all words
  | Or -> Array.fold_left Int64.logor 0L words
  | Nand -> Int64.lognot (Array.fold_left Int64.logand all words)
  | Nor -> Int64.lognot (Array.fold_left Int64.logor 0L words)
  | Xor -> Array.fold_left Int64.logxor 0L words
  | Xnor -> Int64.lognot (Array.fold_left Int64.logxor 0L words)
  | Not -> Int64.lognot words.(0)
  | Buf -> words.(0)

let base = function
  | And -> (And, false)
  | Or -> (Or, false)
  | Nand -> (And, true)
  | Nor -> (Or, true)
  | Xor -> (Xor, false)
  | Xnor -> (Xor, true)
  | Not -> (Buf, true)
  | Buf -> (Buf, false)

let dual = function
  | And -> Or
  | Or -> And
  | Nand -> Nor
  | Nor -> Nand
  | Xor -> Xnor
  | Xnor -> Xor
  | Not -> Not
  | Buf -> Buf
