(** Structural memoization for the DP mapper.

    The engine re-solves structurally identical fanout-free subtrees over
    and over — across the nodes of one network, across the objectives of a
    {!Multi.sweep} portfolio, and across the thousands of sampled
    configurations of a fuzz campaign.  The tuple tables it builds depend
    only on the {e shape} of the subtree below a node (operator kinds,
    series/parallel ordering, which leaves are primary-input literals and
    which are formed gates at a given level, and the pattern of repeated
    leaves), on the cost-model scalars, and on the engine options — never
    on {e which} primary input or gate drives a leaf.  A memo table
    exploits that: it caches, per canonical subtree, the complete DP tuple
    frontier with identity-erased leaves, and a hit reconstructs the exact
    table by substituting the current instance's leaf signals back in.

    {2 Transparency guarantee}

    Memoization is exact, not approximate.  A run with a memo table
    produces the same {!Domino.Circuit.t} (structurally equal) and the
    same {!Engine.stats} as a run without one, with a single documented
    exception: [combinations_tried] counts only combinations actually
    executed, so cache hits — which skip a node's combination loop
    entirely — lower it (and the [mapper.combinations] /
    [mapper.tuples_pruned] metrics, and the tuple-budget charge).
    [tuples_kept], [nodes_processed] and [gates_formed] are recomputed
    from the final tables and are identical.  The argument: every engine
    decision ({!Soi_rules.compare_sols}, domination, the stable frontier
    sort, {!Soi_rules.heuristic_and_order}, the tuples' [has_pi] flag)
    reads scalars and leaf {e kinds} only, and the enumeration order over fanin
    options is determined by the subtree shape — so equal canonical
    shapes under equal key fingerprints yield byte-identical canonical
    tables, and substitution is a bijection on the leaf signals.

    {2 Keying}

    Lookups are keyed by a 128-bit structural signature (bottom-up
    splitmix hashing, symmetric in the two fanins so commutative
    mirror-images share a bucket) together with the cost-model
    fingerprint (the four weight scalars; the model's name is excluded,
    so differently-named models with equal weights share) and the options
    fingerprint (bounds, style, ordering, foot and frontier settings).
    The signature is a filter, not the proof: every hit is confirmed by
    an ordered structural comparison of canonical shapes, which also
    distinguishes duplicate-leaf patterns ([a*a] never borrows [a*b]'s
    table) and mirrored fanin orders.  Same-key entries with different
    shapes coexist in a bucket and are counted as collisions.

    A table is safe to share across domains (sharded, mutex-protected,
    immutable entries).  The greedy degradation sweep
    ({!Engine.map_greedy}) bypasses the cache entirely: it changes the
    mapping-boundary rule, so its tables are not comparable.

    Persistent caches ([soimap --cache]) use a versioned binary format
    with a magic header and a payload digest; see docs/mapping-cache.md.
    Corrupt, truncated or wrong-version files degrade to a cold start
    through {!Resilience.Outcome} — they never crash and never poison
    the table. *)

type t
(** A memo table.  Cheap to create; share one across the runs that
    should pool their work (a portfolio sweep, a warm CLI run). *)

val create : ?shards:int -> unit -> t
(** [create ()] builds an empty table with [shards] internal shards
    (default 16, rounded up to a power of two; use [~shards:1] when the
    table is only ever touched by one task, e.g. a fuzz run). *)

type stats = {
  hits : int;
  misses : int;  (** memoizable lookups that found no entry *)
  collisions : int;
      (** lookups that scanned a same-key entry with a different
          canonical shape (equal 128-bit signature, unequal structure) *)
  entries : int;  (** canonical tables currently stored *)
}

val stats : t -> stats
(** Lifetime totals, accumulated at {!finish} (and {!load}/{!save} for
    [entries]). *)

val entry_count : t -> int
(** Number of cached canonical tables (same as [(stats t).entries]). *)

(** {2 Per-mapping-run sessions}

    The engine opens a [run] per [map] call.  A run resolves node
    signatures incrementally in topological order, so {!find} must be
    called for node [0, 1, ..., n-1] in order, and {!store} for a node
    immediately after its missed {!find} (the engine's sweep does both
    naturally). *)

type run

val start :
  ?under:t ->
  ?prev:t ->
  t ->
  u:Unate.Unetwork.t ->
  fanouts:int array ->
  model:Cost.model ->
  w_max:int ->
  h_max:int ->
  soi:bool ->
  both_orders:bool ->
  grounded:bool ->
  pareto:int ->
  salt:int ->
  boundary_level:(int -> int) ->
  run
(** [start t ~u ~fanouts ... ~boundary_level] opens a session for one
    mapping of [u].  [fanouts] must be [Unetwork.fanout_counts u] (the
    engine's own array); [boundary_level m] must return the formed-gate
    level of multi-fanout node [m] — it is only called for nodes below
    the one being looked up, whose tables are already complete.
    [salt] (0 for plain mapping) extends the options fingerprint: sessions with
    different salts never share entries — the rewriting front end salts
    with its pattern-set fingerprint and variant budget so rewritten and
    plain runs keep disjoint cache worlds.

    [under] and [prev] make [t] an {e overlay} for the session (the
    incremental remap's per-baseline working set, see {!Engine.remap}):
    a lookup reads [under] (never written), then [t], then [prev], and
    a hit in [prev] is copied into [t]; misses are stored in [t] only.
    After the session [t] holds exactly the entries this network used
    that [under] lacks, so replacing [prev] with [t] bounds the overlay
    by one network's working set, and [under] never grows. *)

val find : run -> int -> Soi_rules.sol list array option
(** [find r id] resolves node [id]'s structural signature and looks its
    subtree up.  [Some table] is the reconstructed slot array (length
    [w_max * h_max], same layout as the engine's) — use it verbatim and
    skip the combination loop.  [None] means a miss, or that the node is
    not memoizable (oversized subtree); compute as usual and call
    {!store}. *)

val store : run -> int -> Soi_rules.sol list array -> unit
(** [store r id table] canonicalizes and inserts the completed slot
    array for node [id].  A no-op for unmemoizable nodes, and when
    another task raced the same canonical entry in. *)

val finish : run -> int * int * int
(** [finish r] folds the session's counts into the table and the
    [cache.*] metrics (when collection is enabled) and returns
    [(hits, misses, collisions)] for the caller's trace span.  Call at
    most once, after the sweep. *)

(** {2 Network fingerprints (incremental remapping)}

    The table itself is content-addressed, so an edited network never
    needs a rebuild or a flush: entries for unchanged cones keep
    serving, and the edited cones simply miss and recompute — the
    dirty-cone-only invalidation path.  A {!fingerprint} makes that
    boundary observable {e before} mapping: it assigns every node a
    deep structural signature over its whole transitive fanin —
    ordered, literal-identity-included, and boundary-marked (whether
    each referenced node has fanout > 1), i.e. everything the DP solve
    of that node's cone is a function of.  A node of the edited
    network whose signature also appears in the previous network's
    fingerprint is {e clean}: its cone maps identically and every
    memoizable lookup below it hits.  {!Engine.remap} uses the
    dirty/clean partition to report how much of a warm mapping was
    spliced from cache. *)

type fingerprint

val fingerprint : Unate.Unetwork.t -> fingerprint
(** Deep per-node signatures of [u]; linear in the network. *)

val dirty_cones : prev:fingerprint -> next:fingerprint -> bool array
(** Per node of the [next] network: [true] when no node of [prev] has
    the same deep signature (the cone must be recomputed), [false]
    when the cone — including every mapping-boundary level below it —
    is structurally unchanged.  Conservative in the sound direction:
    a clean verdict guarantees warm-table hits; a dirty verdict merely
    recomputes (and may still hit through the memo's identity-erased
    sharing). *)

val dirty_counts : prev:fingerprint -> next:fingerprint -> int * int
(** [(dirty, clean)] totals of {!dirty_cones}. *)

val fingerprint_hex : fingerprint -> int -> string option
(** The deep signature of node [id] as 32 hex digits (tests). *)

(** {2 Introspection (tests, debugging)} *)

val signature_hex : run -> int -> string option
(** The 128-bit subtree signature of node [id] as 32 hex digits, once
    {!find} has resolved it; [None] for unmemoizable nodes. *)

val shape_string : run -> int -> string option
(** A deterministic rendering of node [id]'s canonical shape (the value
    compared on the collision-check path), once {!find} has resolved
    it. *)

val self_check : t -> (int, string) result
(** Scans every bucket and verifies the structural invariants: same-key
    entries have pairwise distinct canonical shapes, and every cached
    table has the slot-array length its key demands.  [Ok n] reports the
    number of entries checked. *)

(** {2 Persistence} *)

val save : t -> string -> int Resilience.Outcome.t
(** [save t file] atomically writes every entry to [file] (private
    O_EXCL temp file + rename) in the versioned binary format and
    returns the payload size in bytes.  Safe against concurrent writers:
    two processes saving the same [file] (daemon flush racing a CLI run)
    each stream into their own pid+sequence-named temp file, so a reader
    always observes either the old complete payload or a new one, never
    a torn mix.  I/O failures return [Degraded (0, _)] with a
    [Cache_invalid] reason — never an exception. *)

val load : t -> string -> int Resilience.Outcome.t
(** [load t file] merges a saved cache into [t] and returns the number
    of entries added.  A missing file is a normal cold start ([Ok 0]).
    A corrupt, truncated or wrong-version file leaves [t] untouched and
    returns [Degraded (0, [d])] where [d.reason] is
    [Budget.Cache_invalid _] and [d.fallback] is ["cold-start"] — never
    an exception, and unmarshalling is attempted only after the payload
    digest has been verified. *)
