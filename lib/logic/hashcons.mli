(** Int-keyed hash-consing tables.

    The structural-hashing passes ({!Builder}, {!Strash} and the unate
    builder) look up every node they build by its function and fanins,
    and the BLIF reader looks up every signal name.  This table keys on
    a short sequence of ints in a caller-owned buffer — for a node, a
    gate tag followed by fanin ids — and maps it to an int (the node or
    signal id).  It holds one int per slot, at most half of them used,
    and rebuilds a bound key from the caller's own data when it needs
    one.  A lookup allocates nothing; the table grows by doubling and is
    dropped with its pass. *)

type t

val create : int -> key_of:(int -> int array -> int) -> t
(** [create n ~key_of] is an empty table sized for about [n] values.
    The table stores values, not keys: [key_of v buf] must write the key
    [v] is bound to into [buf] and return its length ([buf] is always
    long enough for the longest key looked up so far). *)

val length : t -> int
(** [length t] is the number of bound keys. *)

val find_or_add : t -> int array -> int -> int -> int
(** [find_or_add t key len v] is the value bound to [key.(0) ..
    key.(len-1)]; an unbound key is first bound to [v] (a non-negative
    int below 2{^40}), and [key_of v] must give that key once the call
    returns.  A pass that hash-conses nodes passes the id its next node
    would get, and builds that node when it gets the same id back. *)

(** {1 Node keys} *)

val gate_tag : Gate.t -> int
(** [gate_tag g] is the key tag of a gate of kind [g], distinct for
    every kind. *)

val gate_key : Network.t -> int -> int array -> int
(** [gate_key net id key] writes the key of gate node [id] of [net] —
    its tag, then its fanins as stored — into [key] and returns its
    length: the [key_of] of a table that hash-conses [net]'s gates. *)

val sort_fanins : int array -> int -> int -> unit
(** [sort_fanins key lo hi] sorts [key.(lo) .. key.(hi)] ascending in
    place: the canonical fanin order of a commutative gate (insertion
    sort, as fanin lists are short). *)

val dedup_fanins : int array -> int -> int -> int
(** [dedup_fanins key lo hi] drops repeats from the sorted run [key.(lo)
    .. key.(hi)], keeping one of each, and returns the index of the last
    one kept ([hi] itself when [hi < lo]). *)
