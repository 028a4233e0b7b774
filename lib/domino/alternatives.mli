(** The paper's alternative PBE countermeasures, made measurable.

    Section III-C lists seven ways to tame the parasitic bipolar effect.
    The mapping algorithm uses reordering, gate restructuring and
    p-discharge transistors; it deliberately {e avoids} three others as
    too costly.  This module implements two of the avoided ones so the
    cost argument can be reproduced quantitatively (see the ablation
    driver):

    {b Transformation 3 — breaking parallel stacks by replication}:
    [(A+B+C)*D] becomes [A*D + B*D + C*D].  {!sop_form} distributes every
    series-over-parallel composition into a flat parallel set of series
    chains; a grounded sum-of-products PDN has no committed discharge
    points at all, but transistor count and stack width explode
    combinatorially.

    {b Transformation 2 — body contacts}: instead of discharging an
    internal node, every transistor whose source sits on an undischarged
    risky node gets a body tie.  {!body_contacts_needed} counts them; each
    contact costs area comparable to a transistor and adds input
    capacitance, and the count always meets or exceeds the number of
    discharge transistors it replaces. *)

val sop_form : ?limit:int -> Pdn.t -> Pdn.t option
(** [sop_form p] is the sum-of-products expansion of [p] (a [Parallel]
    spine of pure [Series] chains), or [None] when the expansion would
    exceed [limit] transistors (default 4096).  The expansion preserves
    the conduction function. *)

val split_stacks : ?w_limit:int -> Circuit.t -> Circuit.t
(** [split_stacks c] applies transformation 3 to every gate whose
    sum-of-products form fits within [w_limit] parallel chains (default:
    unlimited); converted gates lose their discharge transistors (their
    potential points all sit on the grounded spine), other gates are kept
    as they are. *)

val body_contacts_needed : Domino_gate.t -> int
(** [body_contacts_needed g] is the number of body ties required to
    protect gate [g] {e without} its discharge transistors: one per
    transistor whose source node is an always-risky junction (the
    grounded-analysis actual set). *)

val circuit_body_contacts : Circuit.t -> int
(** Sum of {!body_contacts_needed} over all gates. *)
