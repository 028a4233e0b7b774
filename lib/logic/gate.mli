(** Combinational gate functions.

    Gates are n-ary where that makes sense: [And]/[Or]/[Nand]/[Nor] accept
    any arity of at least 1, [Xor]/[Xnor] compute (inverted) parity over any
    arity of at least 1, and [Not]/[Buf] are strictly unary. *)

type t =
  | And
  | Or
  | Nand
  | Nor
  | Xor
  | Xnor
  | Not
  | Buf

val to_string : t -> string
(** [to_string g] is a lowercase mnemonic, e.g. ["nand"]. *)

val of_string : string -> t option
(** [of_string s] parses the mnemonic produced by {!to_string}. *)

val arity_ok : t -> int -> bool
(** [arity_ok g n] tells whether a gate of kind [g] may have [n] fanins. *)

val eval : t -> bool array -> bool
(** [eval g inputs] computes the gate function.
    @raise Invalid_argument if the arity is invalid. *)

val eval64 : t -> int64 array -> int64
(** [eval64 g words] is the bitwise-parallel counterpart of {!eval}: each of
    the 64 bit positions carries an independent evaluation. *)

val base : t -> t * bool
(** [base g] splits [g] into an uninverted base gate and an output-inversion
    flag: [base Nand = (And, true)], [base Buf = (Buf, false)], etc.  The
    base of [Not] is [Buf] with inversion. *)

val dual : t -> t
(** [dual g] is the DeMorgan dual: [dual And = Or], [dual Nand = Nor],
    [dual Xor = Xnor], and [Not]/[Buf] are self-dual up to inversion
    ([dual Not = Not], [dual Buf = Buf]). *)
