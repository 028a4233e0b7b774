(** Tuple representation and combination rules.

    This module is the heart of the paper's Section V: partial solutions
    ("tuples") carry, besides the pull-down-network footprint [{W, H}] and
    the accumulated cost, the two PBE bookkeeping fields [p_dis] (potential
    discharge points, to be realised only if the structure's bottom misses
    ground) and [par_b] (parallel branch at the bottom).  [combine_or] and
    [combine_and_soi] implement the update rules reconstructed from the
    paper's text and Figures 4-5 (see DESIGN.md §1 for the derivation);
    [combine_and_bulk] is the PBE-oblivious baseline of Zhao & Sapatnekar
    used by [Domino_Map]. *)

type sol = {
  w : int;  (** PDN width of the partial structure *)
  h : int;  (** PDN height of the partial structure *)
  value : Cost.value;  (** accumulated cost, committed discharges included *)
  p_dis : int;  (** potential discharge points (paper's p_dis) *)
  par_b : bool;  (** parallel branch at the bottom (paper's par_b) *)
  has_pi : bool;
      (** a primary-input literal appears among the leaves, so the gate
          this structure completes into needs a clocked foot.  Kept
          incrementally (OR of the sub-structures) because both frontier
          dominance and gate formation read it on the hot path. *)
  disch : int;  (** committed (actual) discharge transistors so far *)
  structure : structure;
      (** how the tuple was built, without naming a signal *)
}

(** A tuple's derivation.  It names no signal: a leaf is "whatever
    fanin offered this tuple", and a composition at a node records
    which of the node's two fanins each operand came from.  The tuples
    a node's table holds are therefore a function of the shape of its
    fanout-free cone alone, so networks whose cones agree can share one
    table physically; {!Engine} resolves the derivation of a chosen
    tuple into a {!Domino.Pdn.t} against the network being mapped. *)
and structure =
  | Leaf
      (** one transistor driven by the fanin that offered the tuple: a
          primary-input literal, a boundary gate, or the formed gate of
          a single-fanout fanin *)
  | Formed of sol
      (** one transistor driven by the gate a single-fanout fanin forms
          over this tuple of its own table: a formed-gate alternative
          (depth objectives only) *)
  | Parallel of sol * sol
      (** the node's fanin-0 operand beside its fanin-1 operand *)
  | Series of sol * sol
      (** [Series (top, bottom)]: the top operand came from fanin 0 *)
  | Series_flipped of sol * sol
      (** [Series_flipped (top, bottom)]: the top operand came from
          fanin 1 *)

val leaf_pi : Cost.model -> sol
(** A single transistor driven by a primary-input literal. *)

val leaf_gate :
  Cost.model -> level:int -> carried:Cost.value -> carried_disch:int -> sol
(** A single transistor driven by the output of a formed domino gate at
    [level].  [carried] is the gate's formation cost when the driver
    has a single fanout (cumulative costing, as in the paper's example
    where a used gate contributes its full cost plus the interface
    transistor); it is {!Cost.zero}-with-[depth]=[level] for shared
    drivers, whose formation cost is accounted once globally. *)

type op =
  | Or  (** parallel composition *)
  | And_soi  (** series composition with PBE bookkeeping *)
  | And_bulk  (** series composition without PBE awareness *)
(** A combination rule.  For the two series rules the first operand is
    the top of the stack. *)

val combine : ?flipped:bool -> Cost.model -> op -> sol -> sol -> sol
(** [combine model op a b] composes two tuples under [op]; it is
    {!combine_or}, {!combine_and_soi} or {!combine_and_bulk}.  The
    derivation records [a] as the fanin-0 operand unless [flipped]
    (default false), which a series composition sets when its top
    operand came from the node's fanin 1. *)

(** {2 Fields of a combination, without building it}

    Each of these is the named field of [combine model op a b], computed
    from the operands' scalars alone.  [combine] is built from them, so
    a caller that prices a candidate before deciding to build it (the
    engine's bounds and dominance check) reads the very same rules. *)

val width : op -> sol -> sol -> int
val height : op -> sol -> sol -> int

val weighted : Cost.model -> op -> sol -> sol -> int
(** [value.weighted]. *)

val depth : sol -> sol -> int
(** [value.depth]. *)

val p_dis : op -> sol -> sol -> int
val par_b : op -> sol -> sol -> bool
val has_pi : sol -> sol -> bool

val combine_or : Cost.model -> sol -> sol -> sol
(** Parallel composition.  [p_dis] adds, [par_b] becomes true, no
    discharge transistor is committed. *)

val combine_and_soi : Cost.model -> top:sol -> bottom:sol -> sol
(** Series composition with PBE bookkeeping.  If [top] has a parallel
    branch at its bottom, the junction below it can never reach ground:
    the junction and all of [top]'s potential points are committed as
    discharge transistors.  Otherwise the junction joins the potential
    set.  [bottom]'s bookkeeping carries through. *)

val combine_and_bulk : Cost.model -> top:sol -> bottom:sol -> sol
(** Series composition without PBE awareness (costs just add). *)

val compare_sols : Cost.model -> sol -> sol -> int
(** The DP frontier's order: cost key, then [p_dis] (the paper's
    tie-break), then raw transistors, then footless ([has_pi = false])
    last. *)

val heuristic_swaps : sol -> sol -> bool
(** [heuristic_swaps s1 s2] tells whether the paper's ordering rule puts
    [s2] on top of [s1] (see {!heuristic_and_order}). *)

val heuristic_and_order : sol -> sol -> sol * sol
(** [heuristic_and_order s1 s2] is [(top, bottom)] per the paper's
    ordering rule: a parallel-bottomed input goes to the bottom; if both
    are parallel-bottomed, the one with more potential discharge points
    goes to the bottom. *)
