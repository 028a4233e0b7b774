(** Structural memoization for the DP mapper.

    The engine re-solves structurally identical fanout-free subtrees over
    and over — across the nodes of one network, across the objectives of a
    {!Multi.sweep} portfolio, across the edits of an incremental remap,
    and across the thousands of sampled configurations of a fuzz
    campaign.  The paper's DP decides every tuple from its scalars alone
    ([{W, H}], cost, [p_dis], [par_b]), so the tuple table a node builds
    depends only on the shape of its fanout-free cone — operator kinds,
    fanin order, which leaves are primary-input literals and which are
    boundary gates at a given level — on the cost-model scalars, and on
    the engine options; never on {e which} signal drives a leaf.  A memo
    table exploits that: it caches each such table once, and a hit hands
    the engine the cached table itself.

    {2 Keys}

    A node's key is its operator plus one code per fanin: {!pi} for a
    primary-input literal, {!boundary} for a multi-fanout fanin (which
    its consumers only see as a formed gate at some level), and, for a
    single-fanout fanin, the {!id} of that fanin's own entry.  A key
    also carries the run's world: the four cost-model weights (not the
    model's name — equal weights mean equal tables), the engine options
    and a caller salt.  The key is exact (equal keys mean equal tables),
    ordered (mirrored fanins are different keys) and O(1) per node.
    Cones that differ only in which leaves repeat, such as [(a*b)+(a*c)]
    and [(a*b)+(d*c)], build the same table and share one entry.

    {2 Identity-free tables}

    Cached tuples name no signal: a tuple's {!Soi_rules.structure}
    records which fanin and which fanin tuple each operand came from.
    The engine resolves only the tuples it finally chooses into PDNs,
    against the network it is mapping, so a hit installs the cached
    table unchanged — no rebuild, no substitution.

    {2 Transparency guarantee}

    Memoization is exact, not approximate.  A run with a memo table
    produces the same {!Domino.Circuit.t} (structurally equal) and the
    same {!Engine.stats} as a run without one, with a single documented
    exception: [combinations_tried] counts only combinations actually
    executed, so cache hits — which skip a node's combination loop
    entirely — lower it (and the [mapper.tuples_pruned] metric, and
    the tuple-budget charge).
    [tuples_kept], [nodes_processed] and [gates_formed] are recomputed
    from the final tables and are identical.

    A table is safe to share across domains (sharded, mutex-protected,
    immutable entries).  When two domains store one key at once, the
    first publication wins and both get its id.  The greedy degradation
    sweep ({!Engine.map_greedy}) bypasses the cache entirely: it changes
    the mapping-boundary rule.

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
  collisions : int;  (** always 0: keys are exact *)
  entries : int;  (** tables currently stored *)
}

val stats : t -> stats
(** Lifetime totals, accumulated at {!finish} (and {!load}/{!store} for
    [entries]). *)

val entry_count : t -> int
(** Number of cached tables (same as [(stats t).entries]). *)

(** {2 Per-mapping-run sessions}

    The engine opens a [run] per [map] call, and sweeps the network in
    topological order: for each node it builds the node's {!key} from
    its fanins' codes, {!find}s it, and on a miss computes the table and
    {!store}s it.  Either way the node's own code, for its consumer, is
    the {!id} of the entry it got. *)

type run

val start :
  ?under:t ->
  ?prev:t ->
  t ->
  model:Cost.model ->
  w_max:int ->
  h_max:int ->
  soi:bool ->
  both_orders:bool ->
  grounded:bool ->
  pareto:int ->
  salt:int ->
  run
(** [start t ~model ...] opens a session for one mapping.  [salt] (0
    for plain mapping) extends the world: sessions with different salts
    never share entries — the rewriting front end salts with its
    pattern-set fingerprint and variant budget so rewritten and plain
    runs keep disjoint cache worlds.

    [under] and [prev] make [t] an {e overlay} for the session (the
    incremental remap's per-baseline working set, see {!Engine.remap}):
    a lookup reads [under] (never written), then [t], then [prev], and
    a hit in [prev] is copied into [t]; misses are stored in [t] only.
    After the session [t] holds exactly the entries this network used
    that [under] lacks, so replacing [prev] with [t] bounds the overlay
    by one network's working set, and [under] never grows. *)

val pi : int
(** The fanin code of a primary-input literal. *)

val boundary : level:int -> int
(** The fanin code of a multi-fanout fanin whose formed gate sits at
    [level]. *)

type key

val key : run -> op_and:bool -> int -> int -> key
(** [key r ~op_and c0 c1] is the key of an AND ([op_and]) or OR node
    whose fanins have codes [c0] and [c1]. *)

type entry

val id : entry -> int
(** The entry's id: the code its node offers its consumer.  Unique
    among all entries of the process. *)

val table : entry -> Soi_rules.sol list array
(** The cached slot array (the engine's layout).  Never mutate it. *)

val tuples : entry -> int
(** The number of tuples in {!table}. *)

val find : run -> key -> entry option
(** [find r k] is the entry for [k], if any layer holds one. *)

val store : run -> key -> Soi_rules.sol list array -> entry
(** [store r k table] publishes the completed slot array for [k] and
    returns the entry that holds [k]: the new one, or the one another
    domain stored first.  The caller must not mutate [table]
    afterwards. *)

val finish : run -> int * int
(** [finish r] folds the session's counts into the table and the
    [cache.*] metrics (when collection is enabled) and returns
    [(hits, misses)] for the caller's trace span.  Call at most once,
    after the sweep. *)

(** {2 Exact cone identity} *)

val classes :
  Unate.Unetwork.t -> boundary_level:(int -> int) -> int option array
(** Per node, a class under the memo's key scheme, without any table:
    two nodes share a class exactly when their keys would (same operator,
    same fanin codes, where a single-fanout fanin's code is its class).
    Equal classes mean equal DP tables and equal exact optima, which is
    what {!Opt.Certify} dedups cones by.  [boundary_level m] must return
    the formed-gate level of multi-fanout node [m].  [None] for a node
    with a constant fanin. *)

(** {2 Network fingerprints (a reference predictor)}

    The table itself is content-addressed, so an edited network never
    needs a rebuild or a flush: entries for unchanged cones keep
    serving, and the edited cones simply miss and recompute.  The
    misses are what {!Engine.remap} reports.  A {!fingerprint} predicts
    that boundary independently, {e before} mapping: it assigns every
    node a deep structural signature over its whole transitive fanin —
    ordered, literal-identity-included, and boundary-marked (whether
    each referenced node has fanout > 1), i.e. everything the DP solve
    of that node's cone is a function of.  A node of the edited
    network whose signature also appears in the previous network's
    fingerprint is {e clean}: its cone maps identically and every
    memoizable lookup below it hits.  No request path computes it; the
    tests check that a remap re-prices no more nodes than
    {!dirty_cones} marks. *)

type fingerprint

val fingerprint : Unate.Unetwork.t -> fingerprint
(** Deep per-node signatures of [u]; linear in the network. *)

val dirty_cones : prev:fingerprint -> next:fingerprint -> bool array
(** Per node of the [next] network: [true] when no node of [prev] has
    the same deep signature (the cone must be recomputed), [false]
    when the cone — including every mapping-boundary level below it —
    is structurally unchanged.  Conservative in the sound direction:
    a clean verdict guarantees warm-table hits; a dirty verdict merely
    recomputes (and may still hit, since keys ignore leaf identity). *)

(** {2 Invariants} *)

val self_check : t -> (int, string) result
(** Scans every entry and verifies the structural invariants: every
    cached table has the slot-array length its key demands, no two keys
    share an id, and a key only names entries older than its own.
    [Ok n] reports the number of entries checked. *)

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
    of entries added.  Saved entry ids are re-interned: each record's
    key is rebuilt over the ids its fanin records received here, so a
    file loads into a table that already holds other entries.  A
    missing file is a normal cold start ([Ok 0]).  A corrupt, truncated
    or wrong-version file leaves [t] untouched and returns
    [Degraded (0, [d])] where [d.reason] is [Budget.Cache_invalid _] and
    [d.fallback] is ["cold-start"] — never an exception, and
    unmarshalling is attempted only after the payload digest has been
    verified. *)
