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
  structure : Domino.Pdn.t;
      (** series/parallel tree; [S_gate] refs are unate ids *)
}

val leaf_pi : Cost.model -> input:int -> positive:bool -> sol
(** A single transistor driven by a primary-input literal. *)

val leaf_gate :
  Cost.model -> node:int -> level:int -> carried:Cost.value -> carried_disch:int -> sol
(** A single transistor driven by the output of the domino gate formed for
    unate node [node].  [carried] is the gate's formation cost when the
    driver has a single fanout (cumulative costing, as in the paper's
    example where a used gate contributes its full cost plus the interface
    transistor); it is {!Cost.zero}-with-[depth]=[level] for shared
    drivers, whose formation cost is accounted once globally. *)

type op =
  | Or  (** parallel composition *)
  | And_soi  (** series composition with PBE bookkeeping *)
  | And_bulk  (** series composition without PBE awareness *)
(** A combination rule.  For the two series rules the first operand is
    the top of the stack. *)

val combine : Cost.model -> op -> sol -> sol -> sol
(** [combine model op a b] composes two tuples under [op]; it is
    {!combine_or}, {!combine_and_soi} or {!combine_and_bulk}. *)

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

val heuristic_and_order : sol -> sol -> sol * sol
(** [heuristic_and_order s1 s2] is [(top, bottom)] per the paper's
    ordering rule: a parallel-bottomed input goes to the bottom; if both
    are parallel-bottomed, the one with more potential discharge points
    goes to the bottom. *)
