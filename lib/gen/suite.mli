(** The named benchmark suite used by the paper's four result tables.

    Every circuit named in Tables I-IV of the paper is available here by
    its original name.  Circuits whose function is documented are exact
    functional re-creations; the undocumented MCNC random-logic circuits
    are seeded pseudo-random networks size-matched to the paper's reported
    transistor counts (see DESIGN.md §3).  All builds are deterministic. *)

type entry = {
  name : string;  (** benchmark name as used in the paper *)
  description : string;  (** what we actually build for it *)
  build : unit -> Logic.Network.t;  (** deterministic constructor *)
}

val all : entry list
(** Every benchmark, in rough size order. *)

val find : string -> entry option
(** [find name] looks a benchmark up by name, in {!all} and then in
    {!extras}. *)

val build_exn : string -> Logic.Network.t
(** [build_exn name] builds the benchmark {!find} names.
    @raise Not_found for an unknown name. *)

val table1_names : string list
(** Circuits of Table I (Domino_Map vs RS_Map), in paper order. *)

val table2_names : string list
(** Circuits of Table II (Domino_Map vs SOI_Domino_Map), in paper order. *)

val table3_names : string list
(** Circuits of Table III (clock-transistor weighting), in paper order. *)

val table4_names : string list
(** Circuits of Table IV (depth optimisation), in paper order. *)

val extras : entry list
(** Additional circuits beyond the paper's tables (carry-lookahead adder,
    Wallace multiplier, barrel shifter, Gray counter, LFSR, decoder) —
    useful as extra mapping workloads and available from the
    [gencircuit] CLI. *)

val seed_variant : string -> int -> Logic.Network.t option
(** [seed_variant name k] rebuilds a {e random-logic} benchmark with its
    seed offset by [k] (for seed-sensitivity studies); [None] when [name]
    is not one of the seeded random stand-ins. *)
