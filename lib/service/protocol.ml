(* The soimapd wire protocol: newline-delimited JSON frames.

   One request per line, one response per line, in order, over a Unix or
   TCP stream socket.  The format is deliberately boring — it reuses the
   repo's dependency-free {!Obs.Json} reader on both sides, frames are
   resynchronisable after a malformed line (the next newline starts the
   next frame), and every response carries the request's [id] so
   pipelined clients can match them up.

   Parsing and validation are total: a bad frame is an [Error msg], never
   an exception, and the budget-limit validation is the same
   {!Resilience.Budget.validate} the CLI runs, so a request that would be
   rejected as `soimap --timeout 0` is rejected identically here. *)

type addr = Unix_sock of string | Tcp of string * int

let addr_of_string s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "bad address %S (unix:PATH or tcp:HOST:PORT)" s)
  | Some i -> (
      let scheme = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match scheme with
      | "unix" when rest <> "" -> Ok (Unix_sock rest)
      | "tcp" -> (
          match String.rindex_opt rest ':' with
          | None -> Error ("tcp address needs HOST:PORT: " ^ s)
          | Some j -> (
              let host = String.sub rest 0 j in
              let port = String.sub rest (j + 1) (String.length rest - j - 1) in
              match int_of_string_opt port with
              | Some p when p > 0 && p < 65536 ->
                  Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
              | _ -> Error ("bad tcp port: " ^ port)))
      | _ ->
          Error (Printf.sprintf "bad address %S (unix:PATH or tcp:HOST:PORT)" s))

let addr_to_string = function
  | Unix_sock p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

(* ---------------- requests ---------------- *)

type format = Blif | Bench_fmt | Pla | Suite

let format_of_string = function
  | "blif" -> Ok Blif
  | "bench" -> Ok Bench_fmt
  | "pla" -> Ok Pla
  | "suite" -> Ok Suite
  | s -> Error ("unknown format: " ^ s ^ " (blif|bench|pla|suite)")

type load_error = Malformed of int * string | Unknown_benchmark of string

let load format text =
  Obs.Trace.with_span ~cat:"mapper" "mapper.load" @@ fun () ->
  try
    match format with
    | Blif -> Ok (Blif.parse_string text)
    | Bench_fmt -> Ok (Bench_format.parse_string text)
    | Pla -> Ok (Pla.to_network (Pla.parse_string text))
    | Suite -> (
        match Gen.Suite.find text with
        | Some e -> Ok (e.Gen.Suite.build ())
        | None -> Error (Unknown_benchmark text))
  with
  | Blif.Parse_error (line, msg)
  | Bench_format.Parse_error (line, msg)
  | Pla.Parse_error (line, msg) ->
      Error (Malformed (line, msg))

type map_params = {
  format : format;
  payload : string;
  flow : Mapper.Algorithms.flow;
  cost : Mapper.Cost.model;
  w_max : int;
  h_max : int;
  rewrite : int;
  timeout : float option;
  max_tuples : int option;
  max_bdd_nodes : int option;
  on_exhaust : [ `Degrade | `Fail ];
  dump : bool;
  delay_ms : int;
}

type body =
  | Ping
  | Stats
  | Expose
  | Map of map_params
  | Remap of { base : string; params : map_params }

type request = { id : string; trace_id : string option; body : body }

let cost_of_string s =
  match s with
  | "area" -> Ok Mapper.Cost.area
  | "depth" -> Ok Mapper.Cost.depth_soi
  | "depth-bulk" -> Ok Mapper.Cost.depth_bulk
  | _ -> (
      match int_of_string_opt s with
      | Some k when k >= 1 -> Ok (Mapper.Cost.clock_weighted k)
      | _ -> Error ("unknown cost model: " ^ s ^ " (area|depth|depth-bulk|<k>)"))

let flow_of_string = function
  | "bulk" -> Ok Mapper.Algorithms.Domino_map
  | "rs" -> Ok Mapper.Algorithms.Rs_map
  | "soi" -> Ok Mapper.Algorithms.Soi_domino_map
  | s -> Error ("unknown flow: " ^ s ^ " (bulk|rs|soi)")

let on_exhaust_of_string = function
  | "degrade" -> Ok `Degrade
  | "fail" -> Ok `Fail
  | s -> Error ("unknown on_exhaust policy: " ^ s ^ " (degrade|fail)")

(* Accessor helpers over Obs.Json with per-field type errors. *)
let field_str j name default =
  match Obs.Json.member name j with
  | None -> Ok default
  | Some v -> (
      match Obs.Json.to_string v with
      | Some s -> Ok s
      | None -> Error (name ^ " must be a string"))

let field_int j name default =
  match Obs.Json.member name j with
  | None -> Ok default
  | Some v -> (
      match Obs.Json.to_int v with
      | Some n -> Ok n
      | None -> Error (name ^ " must be an integer"))

let field_bool j name default =
  match Obs.Json.member name j with
  | None -> Ok default
  | Some v -> (
      match Obs.Json.to_bool v with
      | Some b -> Ok b
      | None -> Error (name ^ " must be a boolean"))

let field_float_opt j name =
  match Obs.Json.member name j with
  | None -> Ok None
  | Some v -> (
      match Obs.Json.to_float v with
      | Some f -> Ok (Some f)
      | None -> Error (name ^ " must be a number"))

let field_int_opt j name =
  match Obs.Json.member name j with
  | None -> Ok None
  | Some v -> (
      match Obs.Json.to_int v with
      | Some n -> Ok (Some n)
      | None -> Error (name ^ " must be an integer"))

let ( let* ) = Result.bind

let parse_map j =
  let* fmt_s =
    match Obs.Json.member "format" j with
    | None -> Error "map request needs a \"format\" (blif|bench|pla|suite)"
    | Some v -> (
        match Obs.Json.to_string v with
        | Some s -> Ok s
        | None -> Error "format must be a string")
  in
  let* format = format_of_string fmt_s in
  let* payload =
    match Obs.Json.member "payload" j with
    | None -> Error "map request needs a \"payload\""
    | Some v -> (
        match Obs.Json.to_string v with
        | Some s -> Ok s
        | None -> Error "payload must be a string")
  in
  let* flow_s = field_str j "flow" "soi" in
  let* flow = flow_of_string flow_s in
  let d = Mapper.Engine.default_options in
  let* cost =
    match Obs.Json.member "cost" j with
    | None -> Ok d.Mapper.Engine.cost
    | Some _ -> Result.bind (field_str j "cost" "") cost_of_string
  in
  let* w_max = field_int j "w_max" d.Mapper.Engine.w_max in
  let* h_max = field_int j "h_max" d.Mapper.Engine.h_max in
  let* rewrite = field_int j "rewrite" 0 in
  let* timeout = field_float_opt j "timeout" in
  let* max_tuples = field_int_opt j "max_tuples" in
  let* max_bdd_nodes = field_int_opt j "max_bdd_nodes" in
  let* on_exhaust_s = field_str j "on_exhaust" "degrade" in
  let* on_exhaust = on_exhaust_of_string on_exhaust_s in
  let* dump = field_bool j "dump" false in
  let* delay_ms = field_int j "delay_ms" 0 in
  (* The same fail-fast validation as the soimap flags: a zero timeout
     or a non-positive cap is a client error, not a mapping attempt. *)
  let* () = Resilience.Budget.validate ?timeout ?max_tuples ?max_bdd_nodes () in
  let* () =
    if w_max < 1 || h_max < 1 then Error "w_max and h_max must be at least 1"
    else if rewrite < 0 then Error "rewrite must be non-negative"
    else if delay_ms < 0 then Error "delay_ms must be non-negative"
    else Ok ()
  in
  Ok
    (Map
       {
         format;
         payload;
         flow;
         cost;
         w_max;
         h_max;
         rewrite;
         timeout;
         max_tuples;
         max_bdd_nodes;
         on_exhaust;
         dump;
         delay_ms;
       })

(* The remap op: [payload] is the edited circuit, [base] the previously
   mapped one; everything else is a map request.  The rewrite portfolio
   re-prices whole variant networks, so it has no warm path — requesting
   both is a client error, not a silent cold map. *)
let parse_remap j =
  let* base =
    match Obs.Json.member "base" j with
    | None -> Error "remap request needs a \"base\" (the pre-edit circuit)"
    | Some v -> (
        match Obs.Json.to_string v with
        | Some s -> Ok s
        | None -> Error "base must be a string")
  in
  let* m = parse_map j in
  match m with
  | Map params ->
      if params.rewrite > 0 then
        Error "remap does not support rewrite (no warm path through the \
               portfolio)"
      else Ok (Remap { base; params })
  | _ -> assert false

let parse_request line =
  match Obs.Json.parse line with
  | Error msg -> Error ("bad json: " ^ msg)
  | Ok (Obs.Json.Obj _ as j) -> (
      let* id = field_str j "id" "" in
      let* trace_id =
        match Obs.Json.member "trace_id" j with
        | None -> Ok None
        | Some v -> (
            match Obs.Json.to_string v with
            | Some "" -> Ok None
            | Some s -> Ok (Some s)
            | None -> Error "trace_id must be a string")
      in
      let* op = field_str j "op" "map" in
      let* body =
        match op with
        | "ping" -> Ok Ping
        | "stats" -> Ok Stats
        | "expose" -> Ok Expose
        | "map" -> parse_map j
        | "remap" -> parse_remap j
        | s -> Error ("unknown op: " ^ s ^ " (map|remap|ping|stats|expose)")
      in
      Ok { id; trace_id; body })
  | Ok _ -> Error "request must be a json object"

(* ---------------- responses ---------------- *)

let json_escape = Obs.Json.escape

let str s = "\"" ^ json_escape s ^ "\""

let obj fields =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields)
  ^ "}"

(* Every response echoes the request's trace id (when one is live) right
   after [id], so a client log line and a server trace span can be
   joined on it. *)
let tid_fields trace_id =
  match trace_id with None -> [] | Some t -> [ ("trace_id", str t) ]

let render_error ?trace_id ~id msg =
  obj
    ([ ("id", str id) ] @ tid_fields trace_id
    @ [ ("status", str "error"); ("reason", str msg) ])

let render_rejected ?trace_id ~id ~reason ~queue_depth ~retry_after_ms () =
  obj
    ([ ("id", str id) ] @ tid_fields trace_id
    @ [
        ("status", str "rejected");
        ("reason", str reason);
        ("queue_depth", string_of_int queue_depth);
        ("retry_after_ms", string_of_int retry_after_ms);
      ])

let render_failed ?trace_id ~id ~elapsed_ms reason =
  obj
    ([ ("id", str id) ] @ tid_fields trace_id
    @ [
        ("status", str "failed");
        ("reason", str reason);
        ("elapsed_ms", Printf.sprintf "%.3f" elapsed_ms);
      ])

type remap_summary = { rs_nodes : int; rs_dirty : int; rs_clean : int }

let render_mapped ?trace_id ?remap ~id ~status
    ~(counts : Domino.Circuit.counts) ~degradations ~elapsed_ms ~dump () =
  let remap_fields =
    match remap with
    | None -> []
    | Some r ->
        [
          ( "remap",
            obj
              [
                ("nodes", string_of_int r.rs_nodes);
                ("dirty", string_of_int r.rs_dirty);
                ("clean", string_of_int r.rs_clean);
              ] );
        ]
  in
  let base =
    [ ("id", str id) ] @ tid_fields trace_id
    @ [
      ("status", str status);
      ( "counts",
        obj
          [
            ("t_logic", string_of_int counts.Domino.Circuit.t_logic);
            ("t_disch", string_of_int counts.Domino.Circuit.t_disch);
            ("t_total", string_of_int counts.Domino.Circuit.t_total);
            ("t_clock", string_of_int counts.Domino.Circuit.t_clock);
            ("gates", string_of_int counts.Domino.Circuit.gate_count);
            ("levels", string_of_int counts.Domino.Circuit.levels);
            ("pi_inverters", string_of_int counts.Domino.Circuit.pi_inverters);
          ] );
      ( "degradations",
        "[" ^ String.concat ", " (List.map str degradations) ^ "]" );
      ("elapsed_ms", Printf.sprintf "%.3f" elapsed_ms);
    ]
    @ remap_fields
  in
  obj (match dump with None -> base | Some d -> base @ [ ("dump", str d) ])

let render_pong ?trace_id ~id () =
  obj
    ([ ("id", str id) ] @ tid_fields trace_id
    @ [ ("status", str "ok"); ("op", str "ping") ])

(* A metric family as JSON.  Histograms ship their bounds, per-bucket
   counts and value sum intact — the flat [(name, int)] view the
   ["service"] member carries cannot express them without loss. *)
let render_family (f : Obs.Metrics.family) =
  let arr xs = "[" ^ String.concat ", " (List.map string_of_int xs) ^ "]" in
  let base = [ ("name", str f.Obs.Metrics.f_name) ] in
  let kind =
    match f.Obs.Metrics.f_value with
    | Obs.Metrics.Counter v ->
        [ ("kind", str "counter"); ("value", string_of_int v) ]
    | Obs.Metrics.Gauge v ->
        [ ("kind", str "gauge"); ("value", string_of_int v) ]
    | Obs.Metrics.Histogram { bounds; counts; vsum } ->
        [
          ("kind", str "histogram");
          ("bounds", arr (Array.to_list bounds));
          ("counts", arr (Array.to_list counts));
          ("sum", string_of_int vsum);
        ]
  in
  obj (base @ kind @ [ ("stable", if f.Obs.Metrics.f_stable then "true" else "false") ])

let render_stats ?trace_id ?metrics ?gauges ~id totals =
  let base =
    [ ("id", str id) ] @ tid_fields trace_id
    @ [
        ("status", str "ok");
        ("op", str "stats");
        (* Compat view: flat int totals, the shape existing consumers
           (the chaos drill, older clients) already parse. *)
        ("service", obj (List.map (fun (k, v) -> (k, string_of_int v)) totals));
      ]
  in
  let gauges =
    match gauges with
    | None | Some [] -> []
    | Some gs ->
        [ ("gauges", obj (List.map (fun (k, v) -> (k, string_of_int v)) gs)) ]
  in
  let metrics =
    match metrics with
    | None -> []
    | Some fams ->
        [ ("metrics", "[" ^ String.concat ", " (List.map render_family fams) ^ "]") ]
  in
  obj (base @ gauges @ metrics)

let render_expose ?trace_id ~id text =
  obj
    ([ ("id", str id) ] @ tid_fields trace_id
    @ [ ("status", str "ok"); ("op", str "expose"); ("body", str text) ])

let response_trace_id j =
  match Obs.Json.member "trace_id" j with
  | Some v -> Obs.Json.to_string v
  | None -> None

(* Client-side decode: the one field every response carries. *)
let response_status j =
  match Obs.Json.member "status" j with
  | Some v -> (
      match Obs.Json.to_string v with
      | Some s -> Ok s
      | None -> Error "status is not a string")
  | None -> Error "response carries no status"
