(* soibench: the repository's end-to-end and per-layer benchmark.

   One process runs one workload for a fixed window and prints every
   metric by name with its unit.  Its last stdout line is one JSON
   object, {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics of an untraced run (--trace 0) or the per-layer metrics of a
   traced one (--trace 1).  The mapper is measured from outside: the
   bench only times calls into the libraries' public functions and
   requests to a `soimap --serve` child over a Unix socket.  Every
   output is checked, outside the timed window, against a reference the
   mapper did not produce; a mismatch counts as a failed op and makes
   the exit code 1.

     soibench --workload oneshot|tables|daemon_map|daemon_remap
              --seed N --seconds S --trace 0|1 [--json FILE]

   soibench/run.sh builds this executable and soimap from source and
   runs it from the repository root.  soibench/README.md documents the
   workloads, the metrics and how to compare two commits. *)

module Alg = Mapper.Algorithms
module Circuit = Domino.Circuit
module Protocol = Service.Protocol
module Client = Service.Client
module Json = Obs.Json

(* ---------------- measurement helpers ---------------- *)

let now = Obs.Clock.now_ns
let ns_between t0 t1 = Int64.to_float (Int64.sub t1 t0)
let ms_of_ns ns = ns /. 1e6
let ratio a b = if b = 0.0 then 0.0 else a /. b
let ns_of_s s = Int64.of_float (s *. 1e9)

(* Process-wide: under OCaml 5, [Gc.quick_stat] adds up every domain's
   allocation (other domains as of their last minor collection). *)
let minor_words () = (Gc.quick_stat ()).Gc.minor_words

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("soibench: " ^ s);
      exit 2)
    fmt

(* Linear-interpolation quantile, numpy's default method. *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (lo + 1) (n - 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

let timed f =
  let t0 = now () in
  let r = f () in
  (ns_between t0 (now ()), r)

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid) (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> 0.0
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf
              (String.sub l 6 (String.length l - 6))
              " %d" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> scan ()
      in
      scan ())

(* ---------------- bench-side spans (--trace 1) ---------------- *)

(* One span brackets one layer call the bench makes: name, start, end,
   the span that caused it and the op it belongs to.  Spans stay in
   memory and are written out as a Chrome trace when the run ends. *)
type span = {
  sid : int;
  name : string;
  op : int;
  parent : int;  (** 0 for an op's root span *)
  track : int;  (** Chrome tid: 0 in process, 1 + connection for clients *)
  t0 : int64;
  t1 : int64;
}

let spans = ref []
let spans_lock = Mutex.create ()
let next_sid = Atomic.make 1
let next_op = Atomic.make 1

let span ?(track = 0) ?(parent = 0) ~op name f =
  let sid = Atomic.fetch_and_add next_sid 1 in
  let t0 = now () in
  let r = f sid in
  let t1 = now () in
  Mutex.protect spans_lock (fun () ->
      spans := { sid; name; op; parent; track; t0; t1 } :: !spans);
  r

(* The spans recorded while [f] ran. *)
let collect f =
  let mark = Mutex.protect spans_lock (fun () -> !spans) in
  let r = f () in
  let rec since acc l =
    if l == mark then acc
    else match l with [] -> acc | s :: tl -> since (s :: acc) tl
  in
  (r, since [] (Mutex.protect spans_lock (fun () -> !spans)))

let total_ms spans name =
  ms_of_ns
    (List.fold_left
       (fun acc s -> if s.name = name then acc +. ns_between s.t0 s.t1 else acc)
       0.0 spans)

let write_chrome_trace path =
  let all = List.sort (fun a b -> compare a.t0 b.t0) !spans in
  let origin = match all with s :: _ -> s.t0 | [] -> 0L in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"traceEvents\": [\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\": \"%s\", \"cat\": \"soibench\", \"ph\": \"X\", \
             \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, \
             \"args\": {\"op\": %d, \"span\": %d, \"parent\": %d}}\n"
            (if i = 0 then "" else ",")
            s.name
            (ns_between origin s.t0 /. 1e3)
            (ns_between s.t0 s.t1 /. 1e3)
            s.track s.op s.sid s.parent)
        all;
      output_string oc "]}\n")

(* ---------------- inputs ---------------- *)

type input = {
  label : string;
  source : Logic.Network.t;  (** the generator's network: the reference *)
  text : string;  (** the BLIF the program receives *)
}

(* [Blif.to_string] rejects XORs wider than 16 inputs, so circuits are
   serialised after the unate front end, as AND/OR/NOT networks. *)
let blif_of_unate u = Blif.to_string (Unate.Unetwork.to_network u)

let input_of label source =
  { label; source; text = blif_of_unate (Alg.prepare source) }

let suite_net name =
  match
    List.find_opt
      (fun e -> e.Gen.Suite.name = name)
      (Gen.Suite.all @ Gen.Suite.extras)
  with
  | Some e -> e.Gen.Suite.build ()
  | None -> die "unknown suite circuit %s" name

let fixed names = List.map (fun n -> input_of n (suite_net n)) names

(* The suite's seeded random stand-ins, c7552 excepted (it is a
   daemon_remap base).  A seed rebuilds each with its generator seed
   offset: the structure the mapper sees changes, every circuit's size
   does not, so throughput does not hinge on which circuits a seed
   happened to draw. *)
let stand_ins =
  [ "frg1"; "b9"; "c8"; "apex7"; "x1"; "i6"; "t481"; "apex6"; "k2"; "dalu";
    "rot"; "c2670"; "c3540"; "c5315" ]

let stand_in name k =
  match Gen.Suite.seed_variant name k with
  | Some net -> input_of (Printf.sprintf "%s+%d" name k) net
  | None -> die "%s is not a seeded stand-in" name

let soi_options =
  Alg.options_of ~cost:Mapper.Cost.area ~w_max:5 ~h_max:8 ~both_orders:true
    ~grounded_at_foot:true ~pareto_width:1 Alg.Soi_domino_map

(* What `soimap` without --cache does with a BLIF file. *)
let map_blif text =
  match Alg.run_outcome Alg.Soi_domino_map (Blif.parse_string text) with
  | Resilience.Outcome.Ok r -> Ok r
  | Resilience.Outcome.Degraded _ -> Error "degraded"
  | Resilience.Outcome.Failed reason ->
      Error (Resilience.Budget.reason_to_string reason)
  | exception e -> Error (Printexc.to_string e)

(* ---------------- output checks ---------------- *)

(* Every op whose output is checked is one attempt; a wrong output, a
   non-ok status or an exception is one failure. *)
let attempted = ref 0
let failed = ref 0

let record_op = function
  | Ok () -> incr attempted
  | Error msg ->
      incr attempted;
      incr failed;
      if !failed <= 5 then prerr_endline ("soibench: wrong output: " ^ msg)

(* A mapped circuit against its generator network: structural validity,
   then 512 seeded random vectors through [Logic.Eval] (the reference)
   and [Circuit.eval64].  Inputs match by position and name, outputs by
   name. *)
let verify ~seed ~label source (c : Circuit.t) =
  let names =
    Array.map (Logic.Network.input_name source) (Logic.Network.inputs source)
  in
  let by_name a = List.sort compare (Array.to_list a) in
  match Circuit.validate c with
  | Error e -> Error (label ^ ": invalid circuit: " ^ e)
  | Ok () when names <> c.Circuit.input_names ->
      Error (label ^ ": inputs differ from the source")
  | Ok () ->
      let rng = Logic.Rng.create seed in
      let rec round k =
        if k = 0 then Ok ()
        else
          let words = Array.map (fun _ -> Logic.Rng.next64 rng) names in
          if
            by_name (Logic.Eval.eval_outputs64 source words)
            = by_name (Circuit.eval64 c words)
          then round (k - 1)
          else Error (label ^ ": outputs differ from the source")
      in
      round 8

(* The verified reference counts of one input, or why there are none. *)
let reference ~seed (inp : input) =
  match map_blif inp.text with
  | Error e -> Error (inp.label ^ ": " ^ e)
  | Ok r ->
      Result.map
        (fun () -> r)
        (verify ~seed ~label:inp.label inp.source r.Alg.circuit)

let same_counts ~label expected got =
  match (expected, got) with
  | Ok (e : Circuit.counts), Ok g when e = g -> Ok ()
  | Ok _, Ok _ -> Error (label ^ ": counts differ from the reference")
  | Error e, _ -> Error e
  | _, Error e -> Error (label ^ ": " ^ e)

(* ---------------- windows and metrics ---------------- *)

type metric = string * string * float  (* name, unit, value *)

(* Run [op i] for i = from, from + 1, ... until [seconds] have passed.
   Returns the per-op latencies (ns), the results, and the window from
   the first op's start to the last op's end. *)
let run_window ?(from = 0) ~seconds op =
  let t_start = now () in
  let deadline = Int64.add t_start (ns_of_s seconds) in
  let rec go i lats res t_last =
    if Int64.compare t_last deadline >= 0 then
      ( Array.of_list (List.rev lats),
        Array.of_list (List.rev res),
        ns_between t_start t_last )
    else
      let t0 = now () in
      let r = op i in
      let t1 = now () in
      go (i + 1) (ns_between t0 t1 :: lats) (r :: res) t1
  in
  go from [] [] t_start

let ops_per_s ~ops ~window_ns = ratio (float_of_int ops) (window_ns /. 1e9)

(* The end-to-end metrics every workload reports, plus the lines only
   printed: the sample count behind the percentiles, and the tail
   percentiles.  A shared host's speed shifts between levels up to 1.7x
   apart for 10-60 s at a time.  A tail percentile falls among the
   samples of the few slowest payloads (on oneshot, the lowest fifth of
   des's), so it follows how many of them met a slow level, and it moved
   by more than any allowed bound between runs of the same code. *)
let end_to_end ~setup_ns ~lats ~window_ns ~words ~rss ~t_total =
  let ops = Array.length lats in
  let ms = Array.map ms_of_ns lats in
  ( [
      ("setup_s", "s", setup_ns /. 1e9);
      ("ops_per_s", "ops/s", ops_per_s ~ops ~window_ns);
      ("latency_p50_ms", "ms", quantile ms 0.5);
      ("minor_words_per_op", "words", ratio words (float_of_int ops));
      ("peak_rss_mb", "MB", rss);
      ("t_total", "transistors", float_of_int t_total);
    ],
    [
      ("samples", string_of_int ops);
      ("window_s", Printf.sprintf "%.3f" (window_ns /. 1e9));
      ("latency_p95_ms", Printf.sprintf "%.3f" (quantile ms 0.95));
      ("latency_p99_ms", Printf.sprintf "%.3f" (quantile ms 0.99));
    ] )

(* Set-up runs nine times in every untraced run; its metric is the
   median.  Nine set-ups in a row take 1-9 s, which a shared host's slow
   stretches (10-60 s) cover whole, so the median of back-to-back
   set-ups followed whichever stretch it met.  The set-ups are therefore
   spread over the run: in process, one before each ninth of the timed
   window; on daemons, which cannot start another daemon while one
   serves the window, five before the window and four after it. *)
let setup_repeats = 9
let setups_before = 5

(* ---------------- layers ---------------- *)

type engine_totals = { words : float; nodes : int; combos : int; kept : int }

let no_engine = { words = 0.0; nodes = 0; combos = 0; kept = 0 }

let add_engine t words (s : Mapper.Engine.stats) =
  {
    words = t.words +. words;
    nodes = t.nodes + s.Mapper.Engine.nodes_processed;
    combos = t.combos + s.Mapper.Engine.combinations_tried;
    kept = t.kept + s.Mapper.Engine.tuples_kept;
  }

let stage_names =
  [ "blif.parse"; "logic.strash"; "unate.decompose"; "mapper.engine.dp";
    "mapper.postprocess"; "domino.counts" ]

(* The one-shot op split into the layers [Algorithms.run_outcome]
   chains, each call under its own span. *)
let layered ~op ~root text =
  let sp name f = span ~op ~parent:root name (fun _ -> f ()) in
  let net = sp "blif.parse" (fun () -> Blif.parse_string text) in
  let s = sp "logic.strash" (fun () -> Logic.Strash.run net) in
  let u =
    sp "unate.decompose" (fun () ->
        Unate.Unetwork.of_network (Unate.Decompose.to_aoi s))
  in
  let w0 = minor_words () in
  let c, stats = sp "mapper.engine.dp" (fun () -> Mapper.Engine.map soi_options u) in
  let words = minor_words () -. w0 in
  let c = sp "mapper.postprocess" (fun () -> Alg.postprocess Alg.Soi_domino_map c) in
  let counts = sp "domino.counts" (fun () -> Circuit.counts c) in
  (u, counts, stats, words)

type probe = {
  p_text : string;  (** the payload *)
  p_frame : string;  (** the request frame that carries it *)
  p_base : string option;  (** a remap request's base circuit *)
}

type replay = {
  r_spans : span list;
  r_ops : int;
  r_engine : engine_totals;  (** memo-free maps *)
  memo : Mapper.Memo.stats;  (** summed over the fresh-memo maps *)
  dirty : int;
  clean : int;
}

(* Out of the timed window, each of the workload's own payloads goes
   through every in-process layer under its own span: the layers a
   daemon op runs out of the bench's sight, and the memo and remap paths
   a one-shot op does not take.  A payload without a base is remapped
   after one seeded local edit. *)
let replay ~seed probes =
  let engine = ref no_engine and dirty = ref 0 and clean = ref 0 in
  let memo_sum =
    ref { Mapper.Memo.hits = 0; misses = 0; collisions = 0; entries = 0 }
  in
  let (), r_spans =
    collect (fun () ->
        List.iteri
          (fun i p ->
            let op = Atomic.fetch_and_add next_op 1 in
            span ~op "replay.op" (fun root ->
                let sp name f = span ~op ~parent:root name (fun _ -> f ()) in
                ignore
                  (sp "service.protocol.decode" (fun () ->
                       Protocol.parse_request p.p_frame));
                let u, counts, stats, words = layered ~op ~root p.p_text in
                engine := add_engine !engine words stats;
                ignore
                  (sp "service.protocol.render" (fun () ->
                       Protocol.render_mapped ~id:"replay" ~status:"ok" ~counts
                         ~degradations:[] ~elapsed_ms:0.0 ~dump:None ()));
                let memo = Mapper.Memo.create () in
                ignore
                  (sp "mapper.memo.cold_map" (fun () ->
                       Mapper.Engine.map ~memo soi_options u));
                let m = Mapper.Memo.stats memo and s = !memo_sum in
                memo_sum :=
                  {
                    s with
                    Mapper.Memo.hits = s.Mapper.Memo.hits + m.Mapper.Memo.hits;
                    misses = s.Mapper.Memo.misses + m.Mapper.Memo.misses;
                    collisions =
                      s.Mapper.Memo.collisions + m.Mapper.Memo.collisions;
                  };
                ignore
                  (sp "mapper.memo.warm_map" (fun () ->
                       Mapper.Engine.map ~memo soi_options u));
                let base, edited =
                  match p.p_base with
                  | Some b -> (Alg.prepare (Blif.parse_string b), u)
                  | None -> (u, Check.Edit.apply ~seed:(seed + i) u)
                in
                ignore
                  (sp "mapper.remap.fingerprint" (fun () ->
                       Mapper.Memo.fingerprint base));
                let st, _ =
                  sp "mapper.remap.init" (fun () ->
                      Mapper.Engine.remap_init soi_options base)
                in
                let _, _, info =
                  sp "mapper.remap.remap" (fun () -> Mapper.Engine.remap st edited)
                in
                dirty := !dirty + info.Mapper.Engine.dirty_cones;
                clean := !clean + info.Mapper.Engine.clean_cones))
          probes)
  in
  {
    r_spans;
    r_ops = List.length probes;
    r_engine = !engine;
    memo = !memo_sum;
    dirty = !dirty;
    clean = !clean;
  }

(* The daemon's side of a traced run, per request. *)
type service = {
  queue_ms : float;
  map_ms : float;
  respond_ms : float;
  wire_ms : float;
  words_per_req : float;
}

let no_service =
  { queue_ms = 0.0; map_ms = 0.0; respond_ms = 0.0; wire_ms = 0.0; words_per_req = 0.0 }

(* Every per-layer metric, on every workload.  [stages] are the spans of
   the ops that ran the layered pipeline: the live traced window for
   oneshot, the replay elsewhere.  A layer the workload's op never
   reaches (the daemon on an in-process workload, the tables on the
   others) reads 0. *)
let per_layer ~stages:(st_spans, st_ops, eng) ~(replay : replay) ~memo_ratios
    ~service ~pool ~tables ~residual ~overhead : metric list =
  let per_op spans ops name = ratio (total_ms spans name) (float_of_int ops) in
  let st = per_op st_spans st_ops and rp = per_op replay.r_spans replay.r_ops in
  let hit, coll = memo_ratios and util, steal = pool in
  [
    ("blif.parse_ms", "ms", st "blif.parse");
    ("logic.strash_ms", "ms", st "logic.strash");
    ("unate.decompose_ms", "ms", st "unate.decompose");
    ("mapper.engine.dp_ms", "ms", st "mapper.engine.dp");
    ("mapper.engine.minor_words_per_node", "words", ratio eng.words (float_of_int eng.nodes));
    ( "mapper.engine.combinations_per_node", "count",
      ratio (float_of_int eng.combos) (float_of_int eng.nodes) );
    ( "mapper.engine.kept_ratio", "ratio",
      ratio (float_of_int eng.kept) (float_of_int eng.combos) );
    ( "mapper.memo.cold_overhead", "ratio",
      ratio
        (total_ms replay.r_spans "mapper.memo.cold_map")
        (total_ms replay.r_spans "mapper.engine.dp") );
    ("mapper.memo.warm_map_ms", "ms", rp "mapper.memo.warm_map");
    ("mapper.memo.hit_ratio", "ratio", hit);
    ("mapper.memo.collision_ratio", "ratio", coll);
    ("mapper.remap.fingerprint_ms", "ms", rp "mapper.remap.fingerprint");
    ("mapper.remap.init_ms", "ms", rp "mapper.remap.init");
    ("mapper.remap.remap_ms", "ms", rp "mapper.remap.remap");
    ( "mapper.remap.dirty_ratio", "ratio",
      ratio (float_of_int replay.dirty) (float_of_int (replay.dirty + replay.clean)) );
    ("mapper.postprocess_ms", "ms", st "mapper.postprocess");
    ("domino.counts_ms", "ms", st "domino.counts");
    ("service.protocol.decode_ms", "ms", rp "service.protocol.decode");
    ("service.protocol.render_ms", "ms", rp "service.protocol.render");
    ("service.server.queue_ms", "ms", service.queue_ms);
    ("service.server.map_ms", "ms", service.map_ms);
    ("service.server.respond_ms", "ms", service.respond_ms);
    ("service.wire_ms", "ms", service.wire_ms);
    ("service.server.minor_words_per_req", "words", service.words_per_req);
    ("parallel.pool.utilization", "ratio", util);
    ("parallel.pool.steal_ratio", "ratio", steal);
  ]
  @ List.mapi
      (fun i v -> (Printf.sprintf "report.experiments.table%d_ms" (i + 1), "ms", v))
      tables
  @ [ ("layer_residual", "ratio", residual); ("trace_overhead", "ratio", overhead) ]

let memo_ratios_of (m : Mapper.Memo.stats) =
  let lookups = float_of_int (m.Mapper.Memo.hits + m.Mapper.Memo.misses) in
  ( ratio (float_of_int m.Mapper.Memo.hits) lookups,
    ratio (float_of_int m.Mapper.Memo.collisions) lookups )

(* |sum of the layers - the op| / the op, over a window's spans. *)
let residual spans ~op_name layers =
  let op = total_ms spans op_name in
  ratio (Float.abs (List.fold_left (fun acc n -> acc +. total_ms spans n) 0.0 layers -. op)) op

let pool_ratios ~jobs ~window_ns ~busy_ns ~tasks ~steals =
  (ratio busy_ns (window_ns *. float_of_int jobs), ratio steals tasks)

(* Request frames; [payload] and [base] arrive JSON-escaped, so the
   escaping happens once, before any timing starts.  [tag] is both the
   request id and its trace id. *)
let map_frame ?(dump = false) ~tag payload =
  String.concat ""
    [
      "{\"id\": \""; tag; "\", \"trace_id\": \""; tag;
      "\", \"op\": \"map\", \"format\": \"blif\", \"flow\": \"soi\", \"dump\": ";
      (if dump then "true" else "false");
      ", \"payload\": \""; payload; "\"}";
    ]

let remap_frame ~tag ~base payload =
  String.concat ""
    [
      "{\"id\": \""; tag; "\", \"trace_id\": \""; tag;
      "\", \"op\": \"remap\", \"format\": \"blif\", \"flow\": \"soi\", \"base\": \"";
      base; "\", \"payload\": \""; payload; "\"}";
    ]

let map_probe text =
  { p_text = text; p_frame = map_frame ~tag:"p" (Protocol.json_escape text); p_base = None }

(* ---------------- run context ---------------- *)

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  soimap : string;  (** the daemon executable *)
  run_dir : string;  (** sockets, logs and traces, inside the checkout *)
}

(* A workload's result: the metrics it reports, and lines only printed. *)
type outcome = { metrics : metric list; info : (string * string) list }

(* ---------------- in-process windows ---------------- *)

(* The untraced run of an in-process workload: the timed window of [op]
   in [setup_repeats] slices, each after one set-up ([setup ()] times and
   checks one).  The slices' deadlines fall on whole ninths of the
   window, counted in op time, so an op that overruns one slice shortens
   the next.  Allocation is counted process-wide over the slices only. *)
let untraced_window ctx ~op ~check ~setup ~t_total =
  let slice = ctx.seconds /. float_of_int setup_repeats in
  let setups = ref [] and lats = ref [] and results = ref [] in
  let window_ns = ref 0.0 and words = ref 0.0 and from = ref 0 in
  for k = 1 to setup_repeats do
    setups := setup () :: !setups;
    let w0 = minor_words () in
    let l, r, ns =
      run_window ~from:!from ~seconds:((float_of_int k *. slice) -. (!window_ns /. 1e9)) op
    in
    words := !words +. (minor_words () -. w0);
    window_ns := !window_ns +. ns;
    from := !from + Array.length l;
    lats := l :: !lats;
    results := r :: !results
  done;
  check (Array.concat (List.rev !results));
  let metrics, info =
    end_to_end
      ~setup_ns:(median (Array.of_list !setups))
      ~lats:(Array.concat (List.rev !lats))
      ~window_ns:!window_ns ~words:!words ~rss:(peak_rss_mb "self") ~t_total
  in
  { metrics; info }

(* The traced run: half a window of [op], then half of [traced], the
   same op under spans.  Returns the traced half's spans and op count,
   the default pool's utilisation and steal ratio over it, and the
   traced / untraced throughput ratio. *)
let traced_windows ctx ~op ~traced ~check =
  let half = ctx.seconds /. 2.0 in
  let lats_u, results_u, window_u = run_window ~seconds:half op in
  check results_u;
  let pool = Parallel.Pool.default () in
  let s0 = Parallel.Pool.stats pool in
  let (lats, results, window_ns), spans = collect (fun () -> run_window ~seconds:half traced) in
  let s1 = Parallel.Pool.stats pool in
  check results;
  let ops = Array.length lats in
  let pool_use =
    pool_ratios ~jobs:(Parallel.Pool.jobs pool) ~window_ns
      ~busy_ns:(Int64.to_float (Int64.sub s1.Parallel.Pool.busy_ns s0.Parallel.Pool.busy_ns))
      ~tasks:(float_of_int (s1.Parallel.Pool.tasks_run - s0.Parallel.Pool.tasks_run))
      ~steals:(float_of_int (s1.Parallel.Pool.steals - s0.Parallel.Pool.steals))
  in
  ( spans,
    ops,
    pool_use,
    ratio (ops_per_s ~ops ~window_ns)
      (ops_per_s ~ops:(Array.length lats_u) ~window_ns:window_u) )

(* ---------------- oneshot ---------------- *)

(* des and c880, the paper's named designs, then the fourteen stand-ins
   rebuilt with the seed; ops cycle through the corpus round-robin. *)
let oneshot ctx =
  let corpus =
    Array.of_list
      (fixed [ "des"; "c880" ] @ List.map (fun n -> stand_in n ctx.seed) stand_ins)
  in
  let n = Array.length corpus in
  let op i = Result.map (fun r -> r.Alg.counts) (map_blif corpus.(i mod n).text) in
  let expected =
    Array.map
      (fun inp -> Result.map (fun r -> r.Alg.counts) (reference ~seed:ctx.seed inp))
      corpus
  in
  let check_results results =
    Array.iteri
      (fun i got ->
        record_op (same_counts ~label:corpus.(i mod n).label expected.(i mod n) got))
      results
  in
  (* Set-up: an unmeasured pass over the corpus, timed as set-up. *)
  let setup () =
    let ns, results = timed (fun () -> Array.init n op) in
    check_results results;
    ns
  in
  let t_total =
    List.fold_left
      (fun acc i ->
        match expected.(i) with Ok c -> acc + c.Circuit.t_total | Error _ -> acc)
      0 [ 0; 1 ]
  in
  if not ctx.trace then untraced_window ctx ~op ~check:check_results ~setup ~t_total
  else begin
    ignore (setup ());
    let engine = ref no_engine in
    let traced i =
      let op = Atomic.fetch_and_add next_op 1 in
      span ~op "oneshot.op" (fun root ->
          match layered ~op ~root corpus.(i mod n).text with
          | _, counts, stats, words ->
              engine := add_engine !engine words stats;
              Ok counts
          | exception e -> Error (Printexc.to_string e))
    in
    let live, ops, pool, overhead = traced_windows ctx ~op ~traced ~check:check_results in
    let probes = Array.to_list (Array.map (fun inp -> map_probe inp.text) corpus) in
    let rp = replay ~seed:ctx.seed probes in
    let metrics =
      per_layer ~stages:(live, ops, !engine) ~replay:rp
        ~memo_ratios:(memo_ratios_of rp.memo) ~service:no_service ~pool
        ~tables:[ 0.0; 0.0; 0.0; 0.0 ]
        ~residual:(residual live ~op_name:"oneshot.op" stage_names)
        ~overhead
    in
    { metrics; info = [ ("samples", string_of_int ops) ] }
  end

(* ---------------- tables ---------------- *)

let regenerate () =
  Report.Experiments.(table1 (), table2 (), table3 (), table4 ())

let tables_t_total (t1, t2, t3, t4) =
  let open Report.Experiments in
  let sum f rows = List.fold_left (fun acc r -> acc + f r) 0 rows in
  let t (c : Circuit.counts) = c.Circuit.t_total in
  sum (fun r -> t r.base + t r.improved) t1
  + sum (fun r -> t r.base + t r.improved) t2
  + sum (fun r -> t r.k1 + t r.kn) t3
  + sum (fun (r : t4_row) -> t r.bulk + t r.soi) t4

(* One op regenerates Tables I-IV on the default pool at two jobs.  The
   paper suite is fixed, so the seed only seeds the output checks. *)
let tables ctx =
  Parallel.Pool.set_jobs 2;
  let first = regenerate () in
  let check_regen r =
    record_op (if r = first then Ok () else Error "a regeneration differs from the first")
  in
  let setup () =
    let ns, r = timed regenerate in
    check_regen r;
    ns
  in
  (* The SOI column of Table II against verified in-process maps. *)
  let _, t2, _, _ = first in
  List.iter
    (fun (row : Report.Experiments.comparison_row) ->
      let source = suite_net row.Report.Experiments.name in
      let r = Alg.run Alg.Soi_domino_map source in
      record_op
        (Result.bind
           (verify ~seed:ctx.seed ~label:row.Report.Experiments.name source r.Alg.circuit)
           (fun () ->
             same_counts ~label:row.Report.Experiments.name (Ok r.Alg.counts)
               (Ok row.Report.Experiments.improved))))
    t2;
  let op _ = regenerate () in
  let check = Array.iter check_regen in
  if not ctx.trace then
    untraced_window ctx ~op ~check ~setup ~t_total:(tables_t_total first)
  else begin
    let table_names =
      List.init 4 (fun i -> Printf.sprintf "report.experiments.table%d" (i + 1))
    in
    let traced _ =
      let op = Atomic.fetch_and_add next_op 1 in
      span ~op "tables.op" (fun root ->
          let sp i f = span ~op ~parent:root (List.nth table_names (i - 1)) (fun _ -> f ()) in
          let t1 = sp 1 Report.Experiments.table1 in
          let t2 = sp 2 Report.Experiments.table2 in
          let t3 = sp 3 (fun () -> Report.Experiments.table3 ()) in
          let t4 = sp 4 Report.Experiments.table4 in
          (t1, t2, t3, t4))
    in
    let live, ops, pool, overhead = traced_windows ctx ~op ~traced ~check in
    let probes =
      List.map
        (fun (row : Report.Experiments.comparison_row) ->
          map_probe (blif_of_unate (Alg.prepare (suite_net row.Report.Experiments.name))))
        t2
    in
    let rp = replay ~seed:ctx.seed probes in
    let metrics =
      per_layer ~stages:(rp.r_spans, rp.r_ops, rp.r_engine) ~replay:rp
        ~memo_ratios:(memo_ratios_of rp.memo) ~service:no_service ~pool
        ~tables:(List.map (fun n -> ratio (total_ms live n) (float_of_int ops)) table_names)
        ~residual:(residual live ~op_name:"tables.op" table_names)
        ~overhead
    in
    { metrics; info = [ ("samples", string_of_int ops) ] }
  end

(* ---------------- the daemon child ---------------- *)

type daemon = { pid : int; addr : Protocol.addr; dtrace : string option }

let live_daemons = ref []
let daemon_seq = ref 0

let rpc client line =
  Result.bind (Client.send_line client line) (fun () -> Client.recv_line client)

let connect d =
  match Client.connect ~timeout:120.0 d.addr with
  | Ok c -> c
  | Error e -> die "%s" e

(* `soimap --serve` on a Unix socket in the run directory, with two pool
   domains.  Returns once a ping is answered, with the connection that
   sent it. *)
let spawn ctx ~dispatchers ~trace =
  incr daemon_seq;
  let base =
    Filename.concat ctx.run_dir
      (Printf.sprintf "%s-%d-%d" ctx.workload (Unix.getpid ()) !daemon_seq)
  in
  let addr = Protocol.Unix_sock (base ^ ".sock") in
  let dtrace = if trace then Some (base ^ ".daemon-trace.json") else None in
  let args =
    [ ctx.soimap; "--serve"; Protocol.addr_to_string addr; "--jobs"; "2";
      "--dispatchers"; string_of_int dispatchers ]
    @ match dtrace with Some f -> [ "--trace"; f ] | None -> []
  in
  let log =
    Unix.openfile (base ^ ".log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid = Unix.create_process ctx.soimap (Array.of_list args) Unix.stdin log log in
  Unix.close log;
  let d = { pid; addr; dtrace } in
  live_daemons := d :: !live_daemons;
  let client =
    match Client.connect_retry ~timeout:120.0 ~attempts:1000 ~delay:0.01 addr with
    | Ok c -> c
    | Error e -> die "daemon did not start (see %s.log): %s" base e
  in
  (match rpc client "{\"id\": \"ping\", \"op\": \"ping\"}" with
  | Ok _ -> ()
  | Error e -> die "daemon ping: %s" e);
  (d, client)

(* SIGTERM drains the daemon (and closes its trace stream); a clean
   drain exits 0. *)
let stop d clients =
  List.iter Client.close clients;
  Unix.kill d.pid Sys.sigterm;
  let _, status = Unix.waitpid [] d.pid in
  live_daemons := List.filter (fun x -> x.pid <> d.pid) !live_daemons;
  if status <> Unix.WEXITED 0 then die "daemon %d did not drain cleanly" d.pid

let kill_live_daemons () =
  List.iter
    (fun d ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ())
    !live_daemons;
  live_daemons := []

(* The daemon's metric registry, from the `stats` op: counter name ->
   value. *)
let daemon_counters client =
  let fams =
    match rpc client "{\"id\": \"stats\", \"op\": \"stats\"}" with
    | Error e -> die "stats: %s" e
    | Ok line -> (
        match Json.parse line with
        | Ok j -> Option.value ~default:[] (Option.bind (Json.member "metrics" j) Json.to_list)
        | Error e -> die "stats: %s" e)
  in
  List.filter_map
    (fun f ->
      match
        ( Option.bind (Json.member "name" f) Json.to_string,
          Option.bind (Json.member "value" f) Json.to_float )
      with
      | Some n, Some v -> Some (n, v)
      | _ -> None)
    fams

let counter_delta before after name =
  let get cs = Option.value ~default:0.0 (List.assoc_opt name cs) in
  get after -. get before

type reply = {
  conn : int;
  item : int;  (** which payload of the connection's rotation *)
  tag : string;  (** request id and trace id *)
  sent : int64;
  received : int64;
  line : (string, string) result;
}

(* Closed loop: each connection sends its next request once the reply
   to the previous one has arrived, until it has sent [count] requests
   or [deadline] has passed.  [frame ~conn ~k ~tag] is the connection's
   k-th request as (payload index, frame).  Returns the replies and the
   window from the first send to the last reply. *)
let closed_loop ?(traced = false) ?count ?deadline ~clients ~frame phase =
  let t_start = now () in
  let more k =
    (match count with Some c -> k < c | None -> true)
    && match deadline with Some d -> Int64.compare (now ()) d < 0 | None -> true
  in
  let out = Array.make (Array.length clients) [] in
  let worker c () =
    let rec go k acc =
      if not (more k) then acc
      else begin
        let tag = Printf.sprintf "%s-c%d-%d" phase c k in
        let item, fr = frame ~conn:c ~k ~tag in
        let call _ =
          let sent = now () in
          let line = rpc clients.(c) fr in
          let received = now () in
          { conn = c; item; tag; sent; received; line }
        in
        let r =
          if traced then
            span ~track:(c + 1) ~op:(Atomic.fetch_and_add next_op 1) "client.request" call
          else call 0
        in
        if Result.is_error r.line then r :: acc else go (k + 1) (r :: acc)
      end
    in
    out.(c) <- go 0 []
  in
  Array.map (fun c -> Thread.create (worker c) ()) (Array.init (Array.length clients) Fun.id)
  |> Array.iter Thread.join;
  let replies = List.concat (Array.to_list out) in
  let t_end = List.fold_left (fun acc r -> max acc r.received) t_start replies in
  (replies, ns_between t_start t_end)

let latencies replies = Array.of_list (List.map (fun r -> ns_between r.sent r.received) replies)

let counts_fields (c : Circuit.counts) =
  [ ("t_logic", c.Circuit.t_logic); ("t_disch", c.Circuit.t_disch);
    ("t_total", c.Circuit.t_total); ("t_clock", c.Circuit.t_clock);
    ("gates", c.Circuit.gate_count); ("levels", c.Circuit.levels);
    ("pi_inverters", c.Circuit.pi_inverters) ]

(* A reply is right when its status is ok, its counts equal the
   reference and [extra] accepts it; returns the decoded reply. *)
let check_reply ?(extra = fun _ -> Ok ()) ~label expected r =
  let decoded =
    match r.line with
    | Error e -> Error e
    | Ok line -> (
        match Json.parse line with
        | Error e -> Error ("bad json: " ^ e)
        | Ok j -> (
            match Protocol.response_status j with
            | Ok "ok" -> Ok j
            | Ok s -> Error ("status " ^ s)
            | Error e -> Error e))
  in
  let verdict =
    match (expected, decoded) with
    | Error e, _ -> Error e
    | _, Error e -> Error (label ^ ": " ^ e)
    | Ok c, Ok j ->
        let got k =
          Option.bind (Json.member "counts" j) (fun cj ->
              Option.bind (Json.member k cj) Json.to_int)
        in
        let show f =
          String.concat " "
            (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (f k v)) (counts_fields c))
        in
        if List.for_all (fun (k, v) -> got k = Some v) (counts_fields c) then
          Result.map_error (fun e -> label ^ ": " ^ e) (extra j)
        else
          Error
            (Printf.sprintf "%s: counts %s differ from the reference %s" label
               (show (fun k _ -> Option.fold ~none:"?" ~some:string_of_int (got k)))
               (show (fun _ v -> string_of_int v)))
  in
  record_op verdict;
  Result.to_option decoded

(* One complete span of the daemon's --trace stream; times in ns. *)
type dspan = {
  d_name : string;
  d_cat : string;
  d_tid : int;  (** the domain that recorded it *)
  d_trace_id : string option;
  d_start : float;
  d_end : float;
}

let daemon_spans path =
  match Json.of_file path with
  | Ok (Json.Arr evs) ->
      List.filter_map
        (fun ev ->
          let get k f = Option.bind (Json.member k ev) f in
          match
            (get "name" Json.to_string, get "cat" Json.to_string, get "tid" Json.to_int,
             get "ts" Json.to_float, get "dur" Json.to_float)
          with
          | Some d_name, Some d_cat, Some d_tid, Some ts, Some dur ->
              Some
                {
                  d_name; d_cat; d_tid;
                  d_trace_id =
                    get "args" (fun a -> Option.bind (Json.member "trace_id" a) Json.to_string);
                  d_start = ts *. 1e3;
                  d_end = (ts +. dur) *. 1e3;
                }
          | _ -> None)
        evs
  | Ok _ -> die "%s: not a trace-event array" path
  | Error e -> die "%s: %s" path e

(* Intervals as sorted, disjoint (start, end) lists. *)
let union ivs =
  List.fold_left
    (fun acc (a, b) ->
      match acc with
      | (a0, b0) :: tl when a <= b0 -> (a0, Float.max b0 b) :: tl
      | _ -> (a, b) :: acc)
    [] (List.sort compare ivs)
  |> List.rev

let length ivs = List.fold_left (fun acc (a, b) -> acc +. (b -. a)) 0.0 ivs

let rec overlap xs ys =
  match (xs, ys) with
  | [], _ | _, [] -> 0.0
  | (a, b) :: xt, (c, d) :: yt ->
      Float.max 0.0 (Float.min b d -. Float.max a c)
      +. if b < d then overlap xt ys else overlap xs yt

(* Client latency split by the daemon's request spans, joined on trace
   id.  Those spans tile each request (queue + map + respond = request,
   from the same timestamps) and wire time is the client latency outside
   the request span, so their sum is the latency by construction.  The
   residual is therefore taken one level down, from spans timed
   independently: the share of the daemon's map-span time, per domain,
   that no span of the mapper (mapper.prepare, engine.map,
   mapper.postprocess and their children) covers. *)
let service_layers ~dtrace ~words_per_req replies =
  let spans = daemon_spans dtrace in
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      Option.iter (fun id -> Hashtbl.replace tbl (id, s.d_name) s) s.d_trace_id)
    spans;
  let sum = Array.make 4 0.0 and joined = ref 0 and maps = ref [] in
  List.iter
    (fun r ->
      let get n = Hashtbl.find_opt tbl (r.tag, "service." ^ n) in
      match (get "request", get "queue", get "map", get "respond") with
      | Some req, Some q, Some m, Some resp ->
          let dur s = s.d_end -. s.d_start in
          let wire = ns_between r.sent r.received -. dur req in
          List.iteri (fun i v -> sum.(i) <- sum.(i) +. v) [ dur q; dur m; dur resp; wire ];
          incr joined;
          maps := m :: !maps
      | _ -> ())
    replies;
  let on_domain tid l =
    union
      (List.filter_map
         (fun s -> if s.d_tid = tid then Some (s.d_start, s.d_end) else None)
         l)
  in
  let mapper = List.filter (fun s -> s.d_cat = "mapper") spans in
  let map_ns, covered_ns =
    List.fold_left
      (fun (m, c) tid ->
        let ms = on_domain tid !maps in
        (m +. length ms, c +. overlap ms (on_domain tid mapper)))
      (0.0, 0.0)
      (List.sort_uniq compare (List.map (fun s -> s.d_tid) !maps))
  in
  let per i = ms_of_ns (ratio sum.(i) (float_of_int !joined)) in
  ( {
      queue_ms = per 0;
      map_ms = per 1;
      respond_ms = per 2;
      wire_ms = per 3;
      words_per_req;
    },
    ratio (map_ns -. covered_ns) map_ns )

let reply_t_total j =
  Option.value ~default:0
    (Option.bind (Json.member "counts" j) (fun c ->
         Option.bind (Json.member "t_total" c) Json.to_int))

(* What distinguishes the two daemon workloads; the set-up, windows and
   metrics around them are shared. *)
type daemon_spec = {
  dispatchers : int;
  warm_count : int;  (** warm-up requests per connection *)
  warm_frame : conn:int -> k:int -> tag:string -> int * string;
  frame : conn:int -> k:int -> tag:string -> int * string;
  check_warm : reply list -> int;  (** checks the warm-up; its t_total *)
  check : reply list -> unit;
  probes : reply list -> probe list;  (** replay population *)
}

(* Set-up is the program's start-up as a user pays it: spawn until a
   ping is answered, then the warm-up pass.  The bench's own input
   generation and checks happen before and after it. *)
let run_daemon ctx spec =
  let setup ~trace =
    let t0 = now () in
    let d, c0 = spawn ctx ~dispatchers:spec.dispatchers ~trace in
    let clients = [| c0; connect d |] in
    let replies, _ =
      closed_loop ~count:spec.warm_count ~clients ~frame:spec.warm_frame "warm"
    in
    let setup_ns = ns_between t0 (now ()) in
    (setup_ns, d, clients, spec.check_warm replies)
  in
  let window ?traced ~seconds d clients =
    let before = daemon_counters clients.(0) in
    let replies, window_ns =
      closed_loop ?traced
        ~deadline:(Int64.add (now ()) (ns_of_s seconds))
        ~clients ~frame:spec.frame "op"
    in
    let after = daemon_counters clients.(0) in
    let rss = peak_rss_mb (string_of_int d.pid) in
    stop d (Array.to_list clients);
    spec.check replies;
    (replies, window_ns, counter_delta before after, rss)
  in
  if not ctx.trace then begin
    (* Every other set-up's daemon stops as soon as its time is taken, so
       one daemon is alive at a time; the last one before the window
       serves it. *)
    let timed_setup () =
      let setup_ns, d, clients, _ = setup ~trace:false in
      stop d (Array.to_list clients);
      setup_ns
    in
    let earlier = List.init (setups_before - 1) (fun _ -> timed_setup ()) in
    let last_ns, d, clients, t_total = setup ~trace:false in
    let replies, window_ns, delta, rss = window ~seconds:ctx.seconds d clients in
    let after = List.init (setup_repeats - setups_before) (fun _ -> timed_setup ()) in
    let setup_ns = median (Array.of_list ((last_ns :: earlier) @ after)) in
    let metrics, info =
      end_to_end ~setup_ns ~lats:(latencies replies) ~window_ns
        ~words:(delta "service.gc.minor_words") ~rss ~t_total
    in
    { metrics; info }
  end
  else begin
    let half = ctx.seconds /. 2.0 in
    let _, d, clients, _ = setup ~trace:false in
    let replies_u, window_u, _, _ = window ~seconds:half d clients in
    let _, d, clients, _ = setup ~trace:true in
    let replies, window_ns, delta, _ = window ~traced:true ~seconds:half d clients in
    let ops = List.length replies in
    let service, residual =
      service_layers ~dtrace:(Option.get d.dtrace)
        ~words_per_req:(ratio (delta "service.gc.minor_words") (float_of_int ops))
        replies
    in
    let rp = replay ~seed:ctx.seed (spec.probes replies) in
    let lookups = delta "cache.hit" +. delta "cache.miss" in
    let metrics =
      per_layer ~stages:(rp.r_spans, rp.r_ops, rp.r_engine) ~replay:rp
        ~memo_ratios:(ratio (delta "cache.hit") lookups, ratio (delta "cache.collision") lookups)
        ~service
        ~pool:
          (pool_ratios ~jobs:2 ~window_ns ~busy_ns:(delta "pool.busy_ns")
             ~tasks:(delta "pool.tasks") ~steals:(delta "pool.steals"))
        ~tables:[ 0.0; 0.0; 0.0; 0.0 ] ~residual
        ~overhead:
          (ratio
             (ops_per_s ~ops ~window_ns)
             (ops_per_s ~ops:(List.length replies_u) ~window_ns:window_u))
    in
    { metrics; info = [ ("samples", string_of_int ops) ] }
  end

(* ---------------- daemon_map ---------------- *)

(* 64 payloads: des, c880 and six extra designs, then four rounds of the
   fourteen stand-ins rebuilt from the seed.  Both connections rotate
   through all of them, half a corpus apart; the first pass (one
   request per payload, with dump) warms the daemon's shared memo. *)
let daemon_map ctx =
  let named = [ "des"; "c880"; "cla16"; "wmul6"; "barrel16"; "gray8"; "lfsr16"; "dec5" ] in
  let corpus =
    Array.of_list
      (fixed named
      @ List.concat_map
          (fun r -> List.map (fun n -> stand_in n ((4 * ctx.seed) + r)) stand_ins)
          [ 0; 1; 2; 3 ])
  in
  let n = Array.length corpus and half = Array.length corpus / 2 in
  let payloads = Array.map (fun inp -> Protocol.json_escape inp.text) corpus in
  let refs = Array.map (reference ~seed:ctx.seed) corpus in
  let expected = Array.map (Result.map (fun r -> r.Alg.counts)) refs in
  let check replies =
    List.iter
      (fun r -> ignore (check_reply ~label:corpus.(r.item).label expected.(r.item) r))
      replies
  in
  (* Warm-up dumps must be byte-identical to the in-process dump. *)
  let check_warm replies =
    List.fold_left
      (fun acc r ->
        let extra j =
          match (refs.(r.item), Option.bind (Json.member "dump" j) Json.to_string) with
          | Ok ref_r, Some dump when dump = Circuit.dump ref_r.Alg.circuit -> Ok ()
          | _ -> Error "dump differs from the in-process dump"
        in
        match check_reply ~extra ~label:corpus.(r.item).label expected.(r.item) r with
        | Some j when r.item < List.length named -> acc + reply_t_total j
        | _ -> acc)
      0 replies
  in
  run_daemon ctx
    {
      (* One dispatcher, not soimap's default two: with two, two
         dispatcher threads run engine sweeps concurrently on domain 0,
         and the arena pricing core's per-domain scratch is not safe for
         that (wrong counts, or a "no feasible tuple" failure, about once
         in 50,000 maps).  The daemon_map baseline is provisional until
         that race is fixed and this is set back to two. *)
      dispatchers = 1;
      warm_count = half;
      warm_frame =
        (fun ~conn ~k ~tag ->
          let i = (conn * half) + k in
          (i, map_frame ~dump:true ~tag payloads.(i)));
      frame =
        (fun ~conn ~k ~tag ->
          let i = ((conn * half) + k) mod n in
          (i, map_frame ~tag payloads.(i)));
      check_warm;
      check;
      probes = (fun _ -> Array.to_list (Array.map (fun inp -> map_probe inp.text) corpus));
    }

(* ---------------- daemon_remap ---------------- *)

(* Two designers in an edit loop: connection 0 remaps seeded local
   edits of des against the des base, connection 1 edits of c7552
   against c7552.  Every edit is fresh (no payload repeats within a
   run), so dirty cones really miss the memo.  The warm-up remaps each
   unedited base against itself. *)
let daemon_remap ctx =
  let bases = Array.of_list (fixed [ "des"; "c7552" ]) in
  let base_u = Array.map (fun b -> Alg.prepare b.source) bases in
  let base_esc = Array.map (fun b -> Protocol.json_escape b.text) bases in
  (* About twice the edits a connection sends at ~4 requests/s. *)
  let edits = 1 + int_of_float (ctx.seconds *. 8.0) in
  let text ~conn i =
    if i = 0 then bases.(conn).text
    else
      blif_of_unate
        (Check.Edit.apply ~seed:(Hashtbl.hash (ctx.seed, conn, i)) base_u.(conn))
  in
  let payloads =
    Array.init 2 (fun conn ->
        Array.init (edits + 1) (fun i -> Protocol.json_escape (text ~conn i)))
  in
  let frame ~conn ~item ~tag = remap_frame ~tag ~base:base_esc.(conn) payloads.(conn).(item) in
  (* References: cold in-process maps of each payload sent. *)
  let cold = Hashtbl.create 64 in
  let expected ~conn item =
    match Hashtbl.find_opt cold (conn, item) with
    | Some e -> e
    | None ->
        let e =
          if item = 0 then
            Result.map (fun r -> r.Alg.counts) (reference ~seed:ctx.seed bases.(conn))
          else Result.map (fun r -> r.Alg.counts) (map_blif (text ~conn item))
        in
        Hashtbl.replace cold (conn, item) e;
        e
  in
  let check_one r =
    check_reply
      ~label:(Printf.sprintf "%s edit %d" bases.(r.conn).label r.item)
      (expected ~conn:r.conn r.item) r
  in
  run_daemon ctx
    {
      (* Two dispatchers are safe here: remap_lock serialises every
         engine sweep of a remap request. *)
      dispatchers = 2;
      warm_count = 1;
      warm_frame = (fun ~conn ~k:_ ~tag -> (0, frame ~conn ~item:0 ~tag));
      frame =
        (fun ~conn ~k ~tag ->
          let item = 1 + (k mod edits) in
          (item, frame ~conn ~item ~tag));
      check_warm =
        (fun replies ->
          List.fold_left
            (fun acc r ->
              match check_one r with Some j -> acc + reply_t_total j | None -> acc)
            0 replies);
      check = List.iter (fun r -> ignore (check_one r));
      probes =
        (fun replies ->
          List.filter_map
            (fun r ->
              if r.item <= 8 then
                Some
                  {
                    p_text = text ~conn:r.conn r.item;
                    p_frame = frame ~conn:r.conn ~item:r.item ~tag:"p";
                    p_base = Some bases.(r.conn).text;
                  }
              else None)
            replies);
    }

(* ---------------- main ---------------- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (!failed = 0) !attempted !failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v) unit)
          metrics))

let usage =
  "usage: soibench --workload oneshot|tables|daemon_map|daemon_remap --seed N \
   --seconds S --trace 0|1 [--json FILE]"

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 20.0 in
  let trace = ref false and json = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := Some w;
        parse rest
    | "--seed" :: s :: rest ->
        (match int_of_string_opt s with Some n -> seed := n | None -> die "%s" usage);
        parse rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
        | Some x when x > 0.0 -> seconds := x
        | _ -> die "%s" usage);
        parse rest
    | "--trace" :: t :: rest ->
        (match t with "0" -> trace := false | "1" -> trace := true | _ -> die "%s" usage);
        parse rest
    | "--json" :: f :: rest ->
        json := Some f;
        parse rest
    | _ -> die "%s" usage
  in
  parse (List.tl (Array.to_list Sys.argv));
  let workload = match !workload with Some w -> w | None -> die "%s" usage in
  let run =
    match workload with
    | "oneshot" -> oneshot
    | "tables" -> tables
    | "daemon_map" -> daemon_map
    | "daemon_remap" -> daemon_remap
    | w -> die "unknown workload %s\n%s" w usage
  in
  let soimap =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/soimap.exe"
  in
  if not (Sys.file_exists soimap) then die "%s is missing: build bin/soimap.exe" soimap;
  let run_dir = ".soibench" in
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit kill_live_daemons;
  let ctx = { workload; seed = !seed; seconds = !seconds; trace = !trace; soimap; run_dir } in
  let { metrics; info } = run ctx in
  let info =
    if ctx.trace then begin
      let path =
        Filename.concat run_dir (Printf.sprintf "%s-s%d.trace.json" workload ctx.seed)
      in
      write_chrome_trace path;
      info @ [ ("trace_file", path) ]
    end
    else info
  in
  let info =
    info
    @ [
        ( "error_rate",
          Printf.sprintf "%g" (ratio (float_of_int !failed) (float_of_int !attempted)) );
      ]
  in
  Printf.printf "soibench %s seed=%d seconds=%g trace=%d\n" workload ctx.seed ctx.seconds
    (Bool.to_int ctx.trace);
  List.iter (fun (name, unit, v) -> Printf.printf "  %-38s %16.6f %s\n" name v unit) metrics;
  List.iter (fun (k, v) -> Printf.printf "  %-38s %16s\n" k v) info;
  let line = result_line metrics in
  (match !json with
  | Some path ->
      Out_channel.with_open_text path (fun oc ->
          Printf.fprintf oc
            "{\"workload\": \"%s\", \"seed\": %d, \"seconds\": %s, \"trace\": %b, \
             \"info\": {%s}, \"result\": %s}\n"
            workload ctx.seed (json_number ctx.seconds) ctx.trace
            (String.concat ", "
               (List.map (fun (k, v) -> Printf.sprintf "\"%s\": \"%s\"" k v) info))
            line)
  | None -> ());
  print_endline line;
  exit (if !failed = 0 && !attempted > 0 then 0 else 1)
