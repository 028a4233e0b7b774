(** Structural parasitic-bipolar-effect analysis of pull-down networks.

    Implements the paper's discharge-point bookkeeping (Section V,
    Figures 4 and 5) as a standalone walk over a finished PDN tree, so it
    places the discharges of every gate the mapper emits, bulk-CMOS-style
    mappings (the [Domino_Map] baseline) included, and cross-checks the
    incremental bookkeeping carried inside the SOI mapper's tuples.

    Every series junction of the PDN is classified as:

    - {b actual}: must receive a clocked p-discharge transistor no matter
      what — it is (or sits under) the bottom of a parallel stack that is
      not connected to ground, or it lies inside a structure whose bottom
      is known not to reach ground;
    - {b contingent}: needs a p-discharge transistor {e only if} the
      bottom of the whole structure is not connected directly to ground
      (the paper's "potential discharge points", counted by [p_dis]);
    - safe: a plain series junction on the ground path.

    The classification rules mirror the paper exactly:
    - [Parallel]: both branches keep their actual and contingent sets;
      the result has a parallel branch at the bottom ([par_b = true]).
    - [Series (top, bottom)]: the junction between them is never ground.
      If [top] ends in a parallel branch, the junction is the bottom of a
      parallel stack, so the junction {e and} every contingent point of
      [top] become actual.  Otherwise the junction is a plain series
      point: it and [top]'s contingent points stay contingent.
      [bottom]'s classification carries through, and the result inherits
      [bottom]'s [par_b]. *)

type result = {
  actual : Pdn.path list;  (** junctions that always need discharging *)
  contingent : Pdn.path list;
      (** junctions needing discharge iff the structure's bottom is not
          grounded (the paper's [p_dis] set) *)
  par_b : bool;  (** structure has a parallel branch at its bottom *)
}

val analyze : Pdn.t -> result
(** [analyze p] classifies every series junction of [p].  This is the
    reference classifier: mapping runs the walks below, which give its
    answers without building its path lists. *)

val p_dis : Pdn.t -> int
(** [p_dis p] is [List.length (analyze p).contingent], counted in one
    walk. *)

val par_b : Pdn.t -> bool
(** [par_b p] is [(analyze p).par_b], read off [p]'s bottom spine. *)

val discharge_points : grounded:bool -> Pdn.t -> Pdn.path list
(** [discharge_points ~grounded p] is the set of junctions that must carry
    a p-discharge transistor when the bottom of [p] is ([grounded=true])
    or is not ([grounded=false]) connected directly to ground.  When a
    gate is formed its PDN bottom reaches the foot/ground, so gate
    formation uses [~grounded:true].  The points come in sorted order,
    as [List.sort_uniq compare] over {!analyze}'s [actual] (grounded)
    or [actual @ contingent] (not grounded, every series junction). *)

val discharge_count : grounded:bool -> Pdn.t -> int
(** [discharge_count ~grounded p] is the cardinality of
    {!discharge_points}. *)
