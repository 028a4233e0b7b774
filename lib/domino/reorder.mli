(** Series-stack rearrangement (the paper's [Rearrange_Stacks] pass).

    Bulk-CMOS domino mapping fixes transistor stack order arbitrarily.  In
    SOI the order matters: moving a parallel branch to the bottom of its
    series chain lets its potential discharge points sit on (or reach)
    ground, eliminating p-discharge transistors (paper Section V,
    Figure 5; evaluated as [RS_Map] in Table I).

    [rearrange] rewrites a PDN bottom-up: every maximal series chain is
    flattened into factors, each factor is rearranged recursively, and the
    factor that saves the most committed discharge transistors when placed
    on the ground side — a parallel-bottomed factor with the largest
    contingent count — is rotated to the bottom.  Other factors keep
    their relative order.  The transformation never changes the logic
    function, the transistor count, or the [{W, H}] footprint. *)

val rearrange : Pdn.t -> Pdn.t
(** [rearrange p] is the reordered PDN.  It is not idempotent: on a tie
    it sinks the first factor with the largest saving, so applying it
    again may sink another factor of equal saving, and only the
    discharge count is sure to stay the same.  The mapping flow applies
    it once per gate ([Mapper.Engine.finish]). *)

val savings : grounded:bool -> Pdn.t -> int
(** [savings ~grounded p] is the reduction in required discharge
    transistors achieved by [rearrange] on [p] (non-negative). *)
