(** The algebraic rule set of the rewriting front end.

    Six unate identities, all sound for arbitrary (monotone) AND/OR
    networks and all chosen for what they offer the slot-DP downstream:

    - re-association ([and-assoc], [or-assoc]) changes which subterms
      the mapper can pack into one pull-down network without crossing a
      gate boundary — a left-leaning chain and a right-leaning chain of
      the same literals fit {i different} [{W, H}] envelopes;
    - distributive factoring ([and-or-factor], [or-and-factor]) trades
      a duplicated subterm for one extra level — fewer transistors,
      possibly deeper stacks, exactly the trade the cost models weigh;
    - absorption ([and-absorb], [or-absorb]) deletes provably redundant
      structure outright.

    Commutative variants are not rules: the pattern compiler expands
    child orderings ({!Pattern.compile}). *)

val all : Pattern.rule list
(** The default rule set, in deterministic match-priority order. *)

val compiled : unit -> Pattern.compiled
(** [all] compiled once, at module initialisation, and shared. *)

val fingerprint : int
(** {!Pattern.fingerprint} of {!all}; the rewrite contribution to the
    mapper's memo salt. *)
