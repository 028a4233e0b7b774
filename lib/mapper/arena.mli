(** Flat, allocation-free support for the DP hot core.

    The engine's combination loop historically allocated one
    {!Soi_rules.sol} record — a boxed cost value and a PDN tree node —
    for {e every} fanin-tuple combination, then threw most of them away:
    a candidate that is dominated, out of the [{W, H}] bounds, or
    destined to be truncated off the frontier cap allocates exactly like
    a winner.  PR 9's per-request [service.gc.*] deltas made that cost
    visible per mapped cone.

    This module packs the scalar coordinates of a DP tuple into two
    immediate ints ({!Packed}) and provides the per-call scratch
    buffers ({!ctx}) the engine uses to price a candidate — combine,
    bounds check, domination check, and frontier-cap ranking — entirely
    on unboxed integers.  Only candidates that provably change a
    frontier reach the boxed {!Soi_rules} constructors, so the arena
    path allocates per {e survivor}, not per combination.

    {2 Exactness, not approximation}

    The packed filter is a sound pre-filter, never a decision-maker: it
    skips a candidate only when the packed algebra {e proves} the boxed
    [consider] would leave the frontier unchanged (see
    {!val-skip_candidate}).  Anything it cannot prove — a field
    overflowing its packed width, an unpackable frontier element — falls
    through to the boxed path.  Mapping results are therefore
    byte-identical to the legacy core by construction; [test/test_arena.ml]
    proves it frontier-for-frontier across random nets and the paper
    suite (see docs/arena.md for the packing layout and the argument).

    {2 Saturation semantics}

    Fields are {e checked}, not clamped: a coordinate that exceeds its
    packed width would corrupt comparisons silently, so packing fails
    (returns the invalid sentinel) and the engine prices that candidate
    on the boxed path.  The [arena.overflow] metric counts how often
    that rescue fires (zero on every workload in the repo). *)

(** {1 Packed tuples}

    Two 63-bit immediate ints per tuple.

    Word 0 — the cost value ({!Cost.value}):
    {v
    bits  0..29   weighted   (30 bits, composes by +)
    bits 30..39   depth      (10 bits, composes by max)
    bits 40..61   raw        (22 bits, composes by +)
    v}

    Word 1 — the shape coordinates:
    {v
    bits  0..8    w          (9 bits: sums of two in-range widths fit)
    bits  9..17   h          (9 bits)
    bits 18..31   p_dis      (14 bits)
    bits 32..47   disch      (16 bits)
    bit  48       par_b
    bit  49       has_pi
    v} *)
module Packed : sig
  val invalid : int
  (** The sentinel for "could not pack" ([-1]; valid words are
      non-negative). *)

  val max_weighted : int
  val max_depth : int
  val max_raw : int
  val max_w : int
  val max_h : int
  val max_p_dis : int
  val max_disch : int

  val pack0 : Soi_rules.sol -> int
  (** Word 0 of [s], or {!invalid} when a cost coordinate exceeds its
      field. *)

  val pack1 : Soi_rules.sol -> int
  (** Word 1 of [s], or {!invalid} when a shape coordinate exceeds its
      field.  [w]/[h] are packed against the full 9-bit fields; the
      engine's own bounds check against [w_max]/[h_max] happens on the
      unpacked values. *)

  (** Field accessors (word arguments must be valid). *)

  val weighted : int -> int
  val depth : int -> int
  val raw : int -> int
  val w : int -> int
  val h : int -> int
  val p_dis : int -> int
  val disch : int -> int
  val par_b : int -> bool
  val has_pi : int -> bool

  val unpack : w0:int -> w1:int -> Soi_rules.sol
  (** Reconstruct the scalar coordinates (test aid; the structure is a
      placeholder leaf — packed words do not carry PDN trees). *)

  val unpack_with : structure:Domino.Pdn.t -> w0:int -> w1:int -> Soi_rules.sol
  (** {!unpack} with the caller's PDN tree — the engine's [Insert] fast
      path materialises survivors this way, so the packed combination
      is the only scalar arithmetic a survivor pays. *)

  val dominates : depth_matters:bool -> int -> int -> int -> int -> bool
  (** [dominates ~depth_matters a0 a1 b0 b1] is the engine's dominance
      predicate on packed words: equal [par_b], the [has_pi]
      implication, and componentwise [<=] on [weighted] (and [depth]
      when [depth_matters]) and [p_dis].  Agrees with the boxed
      predicate on every pair of packable tuples
      (test/test_arena.ml). *)

  (** Packed combination rules, mirroring {!Soi_rules}.  Each returns
      one word; callers pass both operands' words.  The result is
      {!invalid} when a field overflows, or when either operand is
      {!invalid}. *)

  val or0 : int -> int -> int
  val or1 : int -> int -> int

  val and_soi0 : discharge:int -> top0:int -> top1:int -> bottom0:int -> int
  (** Word 0 of the SOI series composition: the committed-discharge
      term reads the top operand's [par_b]/[p_dis] from [top1]. *)

  val and_soi1 : top1:int -> bottom1:int -> int
  val and_bulk0 : top0:int -> bottom0:int -> int
  val and_bulk1 : top1:int -> bottom1:int -> int
end

(** {1 Flat network view}

    An int-indexed mirror of a {!Unate.Unetwork.t}, built once per
    mapping call: node kinds in a byte array and fanins encoded into
    plain ints, so the sweep's per-combination dispatch and the fanin
    option enumeration never touch boxed [fin] constructors. *)
module Net : sig
  type t

  val of_unetwork : Unate.Unetwork.t -> t
  val node_count : t -> int
  val is_and : t -> int -> bool

  (** Encoded fanins: [>= 0] is an internal node id; [-1]/[-2] are the
      constants false/true; anything below is a primary-input literal. *)

  val fin0 : t -> int -> int
  val fin1 : t -> int -> int
  val encode : Unate.Unetwork.fin -> int
  val is_node : int -> bool
  val is_const : int -> bool
  val const_value : int -> bool
  val lit_input : int -> int
  val lit_positive : int -> bool
end

(** {1 Per-call scratch}

    One [ctx] per mapping call, holding the packed copies of the
    current node's fanin option lists and the packed mirror of its
    frontier slots.  Buffers grow geometrically and are reused across
    the call's nodes and cones.  A context is never shared: two sweeps
    running at once — two systhreads on one domain included — each own
    one.  A fresh context costs under a thousand words. *)

type ctx

val create : unit -> ctx
(** A fresh scratch context for one mapping call. *)

val max_slots : int
(** Upper bound on [w_max * h_max] the scratch mirror will serve
    ([4096]); larger slot grids would make the mirror arrays
    disproportionate. *)

val eligible : w_max:int -> h_max:int -> bool
(** Whether the packed filter can serve these bounds: both within the
    9-bit packed fields and [w_max * h_max <= max_slots].  Ineligible
    options simply run the boxed path. *)

val begin_node :
  ctx ->
  w_max:int ->
  h_max:int ->
  opts0:Soi_rules.sol list ->
  opts1:Soi_rules.sol list ->
  unit
(** Load a node's two fanin option lists into packed form (unpackable
    options are marked {!Packed.invalid} and price boxed) and reset the
    frontier mirror to all-empty — matching the engine's fresh slot
    array. *)

type verdict =
  | Skip_pruned
      (** The boxed [consider] would reject or cap-drop this candidate
          and leave the frontier unchanged: skip it, count one pruned
          tuple. *)
  | Insert of { c0 : int; c1 : int }
      (** The candidate is within bounds, packed exactly into
          [(c0, c1)], and not dominated by the slot's (clean) mirrored
          frontier: the engine materialises it via
          {!Packed.unpack_with} and inserts without re-checking
          dominance. *)
  | Run_boxed
      (** No packed verdict (an operand or the slot's mirror is not
          packable): run the fully boxed path, then {!refresh_slot}. *)

val candidate :
  ctx ->
  depth_factor:int ->
  clocked:int ->
  discharge:int ->
  grounded:bool ->
  pareto:int ->
  op:[ `Or | `And_soi | `And_soi_rev | `And_bulk ] ->
  i0:int ->
  i1:int ->
  verdict
(** Price candidate [opts0.(i0) ⊗ opts1.(i1)] on packed words.
    [Skip_pruned] is returned exactly when the boxed [consider] would
    (a) reject the candidate for exceeding [w_max]/[h_max], (b) reject
    it as dominated by a kept tuple, or (c) insert it, evict nothing,
    and truncate it straight off the frontier cap — the three cases
    that leave [entry.table] unchanged and bump the pruned count by
    one.  For [`And_soi]/[`And_bulk], [opts0.(i0)] is the top operand;
    [`And_soi_rev] is the swapped series order ([opts1.(i1)] on
    top). *)

val refresh_slot : ctx -> slot:int -> Soi_rules.sol list -> unit
(** Re-pack frontier slot [slot] from the boxed table after a boxed
    [consider] ran.  A slot containing an unpackable tuple is marked
    dirty: candidates aimed at it run boxed until it is refreshed
    clean. *)
