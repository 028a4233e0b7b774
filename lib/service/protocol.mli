(** The soimapd wire protocol: newline-delimited JSON frames.

    One request per line, one response per line, over a Unix-domain or
    TCP stream socket.  Both sides reuse the dependency-free {!Obs.Json}
    reader; a malformed line yields an [error] response and the stream
    resynchronises at the next newline.  Every response echoes the
    request's [id].

    Request shape (all fields except [format]/[payload] optional):
    {v
    {"id":"r1", "op":"map", "format":"blif|bench|pla|suite",
     "payload":"...", "flow":"bulk|rs|soi", "cost":"area|depth|depth-bulk|<k>",
     "w_max":5, "h_max":8, "rewrite":0,
     "timeout":2.5, "max_tuples":100000, "max_bdd_nodes":100000,
     "on_exhaust":"degrade|fail", "dump":false, "delay_ms":0}
    v}
    [op] is ["map"] (default), ["remap"], ["ping"], ["stats"], or
    ["expose"] (OpenMetrics text in the response's [body]).  [delay_ms]
    is a chaos-drill aid: the server sleeps that long (clamped by
    policy) before mapping, simulating a slow downstream stage.

    A ["remap"] request carries every map field plus ["base"]: the
    pre-edit circuit in the same [format].  The server keeps one warm
    baseline state keyed by (base, format, flow, cost, bounds): a miss
    maps the base through the shared warm memo, and every further remap
    against the same base maps the payload against the state —
    re-pricing only the nodes whose memo keys miss (an unchanged
    payload answers from the whole-network fast path) — then answers
    with the normal mapped response plus a ["remap"] member
    [{"nodes":N,"dirty":N,"clean":N}] ({!remap_summary}).  Results are
    byte-identical to a cold map of the payload either way.  [rewrite]
    is rejected for remap requests (the portfolio has no warm path).

    Any request may carry a ["trace_id"]: a client-chosen correlation
    token echoed verbatim in the response.  When the request omits it
    and the server is tracing, the server assigns one (and still echoes
    it), so every span tree in the server's trace file is nameable from
    either side.

    Response statuses: [ok], [degraded] (budget tripped, greedy fallback
    mapped), [failed] (budget tripped under [on_exhaust:"fail"], or the
    payload did not parse), [rejected] (admission control; carries
    [retry_after_ms]), [error] (malformed or invalid frame).  See
    docs/service.md for the full catalogue. *)

type addr = Unix_sock of string | Tcp of string * int

val addr_of_string : string -> (addr, string) result
(** Parses ["unix:PATH"] or ["tcp:HOST:PORT"] (empty host means
    127.0.0.1). *)

val addr_to_string : addr -> string

(** {1 Requests} *)

type format = Blif | Bench_fmt | Pla | Suite

type load_error =
  | Malformed of int * string
      (** [(line, message)]: the text is not valid in its format *)
  | Unknown_benchmark of string  (** a [Suite] name {!Gen.Suite.find} lacks *)

val load : format -> string -> (Logic.Network.t, load_error) result
(** [load format text] builds the network [text] describes: the circuit
    text itself for [Blif], [Bench_fmt] and [Pla], a built-in benchmark
    name ({!Gen.Suite.find}) for [Suite].  Runs under the [mapper.load]
    span.  The daemon loads payloads and remap bases through it, and
    [soimap] loads what its input flags name. *)

type map_params = {
  format : format;
  payload : string;  (** circuit text, or the suite benchmark name *)
  flow : Mapper.Algorithms.flow;
  cost : Mapper.Cost.model;
  w_max : int;  (** between {!Mapper.Engine.min_bound} and 16 *)
  h_max : int;  (** between {!Mapper.Engine.min_bound} and 16 *)
  rewrite : int;
  timeout : float option;  (** client-requested; clamped by server policy *)
  max_tuples : int option;
  max_bdd_nodes : int option;
  on_exhaust : [ `Degrade | `Fail ];
  dump : bool;  (** include the canonical circuit dump in the response *)
  delay_ms : int;  (** drill aid: pre-mapping sleep, clamped by policy *)
}

type body =
  | Ping
  | Stats
  | Expose
  | Map of map_params
  | Remap of { base : string; params : map_params }
      (** incremental remap: [base] is the pre-edit circuit text in
          [params.format]; [params.payload] the edited one *)

type request = {
  id : string;
  trace_id : string option;  (** client correlation token, echoed back *)
  body : body;
}

val parse_request : string -> (request, string) result
(** Total: malformed JSON, unknown fields values, and nonsensical budget
    limits (the same {!Resilience.Budget.validate} rules as the CLI
    flags) come back as [Error msg], never an exception. *)

val flow_of_string : string -> (Mapper.Algorithms.flow, string) result
val cost_of_string : string -> (Mapper.Cost.model, string) result

val on_exhaust_of_string : string -> ([ `Degrade | `Fail ], string) result
(** The request vocabulary, shared with the [soimap] flags of the same
    names. *)

(** {1 Responses}

    Every renderer takes an optional [trace_id]; when given, the
    response carries a ["trace_id"] member right after ["id"]. *)

val render_error : ?trace_id:string -> id:string -> string -> string

val render_rejected :
  ?trace_id:string ->
  id:string ->
  reason:string ->
  queue_depth:int ->
  retry_after_ms:int ->
  unit ->
  string

val render_failed :
  ?trace_id:string -> id:string -> elapsed_ms:float -> string -> string

type remap_summary = { rs_nodes : int; rs_dirty : int; rs_clean : int }
(** The counts attached to a remap response: total nodes in the edited
    network, how many the remap re-priced ([dirty]: its memo misses),
    and how many it reused ([clean]: the rest).  They depend on what
    the daemon's shared memo already holds: a payload whose tables
    another request already mapped re-prices nothing. *)

val render_mapped :
  ?trace_id:string ->
  ?remap:remap_summary ->
  id:string ->
  status:string ->
  counts:Domino.Circuit.counts ->
  degradations:string list ->
  elapsed_ms:float ->
  dump:string option ->
  unit ->
  string

val render_pong : ?trace_id:string -> id:string -> unit -> string

val render_stats :
  ?trace_id:string ->
  ?metrics:Obs.Metrics.family list ->
  ?gauges:(string * int) list ->
  id:string ->
  (string * int) list ->
  string
(** [render_stats ~id totals] keeps the flat ["service"] object of int
    totals — the compat shape existing consumers parse.  [gauges] adds
    a ["gauges"] object of live point-in-time values (queue depth,
    in-flight count); [metrics] adds a ["metrics"] array with the full
    typed registry: histograms ship [bounds]/[counts]/[sum] intact
    instead of being flattened lossily. *)

val render_expose : ?trace_id:string -> id:string -> string -> string
(** The [expose] response: OpenMetrics exposition text in ["body"]. *)

val response_status : Obs.Json.t -> (string, string) result
(** The [status] member of a decoded response. *)

val response_trace_id : Obs.Json.t -> string option
(** The echoed ["trace_id"] member, when present. *)

val json_escape : string -> string
(** {!Obs.Json.escape}: JSON string-body escaping. *)
