(** Mapped domino circuits and their transistor accounting.

    A circuit is an array of {!Domino_gate.t} in topological order (a
    gate's [S_gate] fanins always have smaller identifiers) plus the
    primary-output bindings.  The transistor accounting matches the
    columns of the paper's result tables. *)

type t = {
  source : string;  (** name of the network this was mapped from *)
  input_names : string array;  (** primary inputs, by literal index *)
  gates : Domino_gate.t array;
  outputs : (string * Pdn.signal) array;
      (** primary output drivers: a gate, a literal for trivial
          feed-throughs, or a rail tie ([Pdn.S_const]) for outputs that
          folded to a constant *)
}

type counts = {
  t_logic : int;  (** PDN + precharge + foot + inverter + keeper *)
  t_disch : int;  (** p-discharge transistors (the paper's T_disch) *)
  t_total : int;  (** [t_logic + t_disch] *)
  t_clock : int;  (** clock-connected: precharge + foot + discharge *)
  gate_count : int;  (** the paper's #G *)
  levels : int;  (** domino gate levels on the longest PI-to-PO path *)
  pi_inverters : int;
      (** distinct negative input literals used (inverters at the input
          boundary; reported separately, excluded from [t_logic] as in
          the paper) *)
}

val strip_discharges : t -> t
(** [strip_discharges c] is [c] without any p-discharge transistor: the
    unprotected circuit the negative PBE oracle and the simulator demos
    run to show the failures the discharges prevent. *)

val counts : t -> counts
(** [counts c] computes the full accounting in one pass. *)

val validate : t -> (unit, string) result
(** [validate c] checks topological ordering of gate references, discharge
    paths addressing real series junctions, output references in range,
    and level consistency. *)

val eval : t -> bool array -> (string * bool) array
(** [eval c pi] is the functional (ideal, PBE-free) evaluation: each gate
    output is the conduction of its PDN.  Matches the source network on
    every vector when mapping is correct. *)

val eval64 : t -> int64 array -> (string * int64) array
(** Bit-parallel functional evaluation. *)

val equivalent_to : ?vectors:int -> ?seed:int -> t -> Unate.Unetwork.t -> bool
(** [equivalent_to c u] random-simulation-compares the mapped circuit
    against the unate network it was mapped from. *)

val to_network : t -> Logic.Network.t
(** [to_network c] re-expresses the mapped circuit as a gate-level
    network: every PDN becomes its AND/OR tree, negative input literals
    become inverters.  Preserves input order and output names, so the
    result can be compared formally against the source network with
    {!Logic.Equiv.networks}, written back to BLIF, or drawn with
    {!Logic.Dot}. *)

val equivalent_exact : ?limit:int -> t -> Logic.Network.t -> Logic.Equiv.verdict
(** [equivalent_exact c source] formally compares the mapped circuit
    against the network it was mapped from, via {!to_network} and BDDs. *)

val equivalent_checked :
  ?limit:int ->
  ?vectors:int ->
  ?seed:int ->
  t ->
  Logic.Network.t ->
  Logic.Equiv.checked
(** {!equivalent_exact} with the degradation ladder: output cones whose
    BDDs blow the [limit] node cap fall back to seeded bit-parallel
    sampling, and the result records whether the verdict is exact and
    how many vectors the fallback drew
    ({!Logic.Equiv.networks_per_output_or_sample}). *)

val pp : Format.formatter -> t -> unit
(** Multi-line listing of every gate and output binding. *)

val dump_version : int
(** Version stamped into the first line of {!dump} output. *)

val dump : t -> string
(** [dump c] is a canonical, versioned, deterministic text export of the
    whole circuit — inputs, every gate's PDN / foot / level / discharge
    paths, output bindings, and the recomputed transistor accounting.
    Two structurally equal circuits always dump to the same bytes, so the
    golden regression corpus ([test/golden/]) diffs against this format.
    The leading [soi-domino-dump N] line is the format version: bump it
    (and regenerate the corpus) when the {e format} changes. *)
