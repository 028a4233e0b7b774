(* The observability layer: the JSON reader, the sharded metrics
   registry, the span tracer and its Chrome export, and the CLI surface
   that carries them (soimap --stats/--trace).

   Metrics and tracing are process-global switches, so every test that
   flips them restores the disabled state under Fun.protect — the rest
   of the suite must keep measuring the null sink. *)

let with_metrics f =
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ())
    f

let with_trace f =
  Obs.Trace.clear ();
  Obs.Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_enabled false;
      Obs.Trace.clear ())
    f

let snapshot_value name =
  match List.assoc_opt name (Obs.Metrics.snapshot ()) with
  | Some v -> v
  | None -> Alcotest.fail ("metric not in snapshot: " ^ name)

(* ---------------- Obs.Json ---------------- *)

let test_json_values () =
  let open Obs.Json in
  Alcotest.(check bool) "null" true (parse_exn " null " = Null);
  Alcotest.(check bool) "bools" true
    (parse_exn "true" = Bool true && parse_exn "false" = Bool false);
  Alcotest.(check bool) "numbers" true
    (parse_exn "42" = Num 42.0
    && parse_exn "-12.5e1" = Num (-125.0)
    && parse_exn "0.25" = Num 0.25);
  Alcotest.(check bool) "string escapes" true
    (parse_exn "\"a\\n\\t\\\\\\\"\\u0041\"" = Str "a\n\t\\\"A");
  Alcotest.(check bool) "array" true
    (parse_exn "[1, \"x\", null]" = Arr [ Num 1.0; Str "x"; Null ]);
  let doc = parse_exn "{\"a\": {\"b\": [1, 2]}, \"c\": true}" in
  Alcotest.(check (option bool)) "member chain" (Some true)
    (Option.bind (member "c" doc) to_bool);
  let nested =
    Option.bind (member "a" doc) (member "b")
    |> Fun.flip Option.bind to_list
    |> Fun.flip Option.bind (fun l -> List.nth_opt l 1)
    |> Fun.flip Option.bind to_int
  in
  Alcotest.(check (option int)) "nested member" (Some 2) nested

let test_json_errors () =
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted malformed %S" s)
      | Error _ -> ())
    [ ""; "{"; "[1,"; "tru"; "\"open"; "{\"a\" 1}"; "1 2"; "{,}"; "[1 2]" ]

(* A request frame is mostly one long string.  Decoding copies each run
   of plain bytes into the result once: a 200 KB string with escapes at
   both ends decodes exactly and allocates at most half a word per byte,
   counting the major heap, where large strings go. *)
let test_json_long_string () =
  let body = String.init 200_000 (fun i -> Char.chr (Char.code 'a' + (i mod 26))) in
  let doc = "\"\\n\\u00e9\\\"" ^ body ^ "\\t\\\\\\u0041\"" in
  let want = "\n\xc3\xa9\"" ^ body ^ "\t\\A" in
  let allocated () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  (* Start from a collected heap: a minor collection and the end of a
     major cycle inside the window, timed by what earlier tests left
     behind, otherwise add about 120k minor words to the count. *)
  Gc.full_major ();
  let w0 = allocated () in
  let got = Obs.Json.parse doc in
  let words = allocated () -. w0 in
  (match got with
  | Ok (Obs.Json.Str s) ->
      Alcotest.(check int) "decoded length" (String.length want) (String.length s);
      Alcotest.(check bool) "decoded bytes" true (String.equal want s)
  | Ok _ -> Alcotest.fail "not a string"
  | Error e -> Alcotest.fail e);
  let per_byte = words /. float_of_int (String.length doc) in
  if per_byte > 0.5 then
    Alcotest.failf "decoding allocated %.2f words per byte (at most 0.5)" per_byte

(* The one escaper the repo's JSON writers share: every ASCII byte,
   control bytes included, and a multi-byte UTF-8 sequence come back
   from the reader unchanged, with the short escapes where JSON has
   them. *)
let test_json_escape_roundtrip () =
  let ascii = String.init 0x80 Char.chr in
  let s = ascii ^ "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80" in
  (match Obs.Json.parse ("\"" ^ Obs.Json.escape s ^ "\"") with
  | Ok (Obs.Json.Str got) ->
      Alcotest.(check bool) "escape then parse is the identity" true
        (String.equal s got)
  | Ok _ -> Alcotest.fail "not a string"
  | Error e -> Alcotest.fail e);
  Alcotest.(check string) "short and unicode escapes"
    "\\n\\r\\t\\u0001\\\"\\\\" (Obs.Json.escape "\n\r\t\001\"\\")

let test_json_roundtrip_report () =
  (* The reader must accept what the repo's own emitters produce. *)
  let r =
    Check.Fuzz.run
      { Check.Fuzz.default_params with Check.Fuzz.seed = 2; budget = 2;
        eval_vectors = 32; sim_pairs = 2 }
  in
  match Obs.Json.parse (Check.Report.to_json r) with
  | Error e -> Alcotest.fail ("fuzz report JSON rejected: " ^ e)
  | Ok doc ->
      Alcotest.(check (option int)) "runs field" (Some r.Check.Report.runs)
        (Option.bind (Obs.Json.member "runs" doc) Obs.Json.to_int)

(* ---------------- Obs.Metrics ---------------- *)

let c_test = Obs.Metrics.counter "test.counter"
let g_test = Obs.Metrics.gauge_max ~stable:false "test.gauge"
let h_test = Obs.Metrics.histogram ~buckets:[| 10; 100 |] "test.hist"

let test_metrics_disabled_free () =
  Obs.Metrics.reset ();
  Alcotest.(check bool) "collection off" false (Obs.Metrics.enabled ());
  Obs.Metrics.add c_test 5;
  Obs.Metrics.observe_max g_test 7;
  Obs.Metrics.observe h_test 3;
  Alcotest.(check int) "disabled add ignored" 0 (snapshot_value "test.counter");
  Alcotest.(check int) "disabled observe ignored" 0
    (snapshot_value "test.hist{le=10}")

let test_metrics_aggregation () =
  with_metrics @@ fun () ->
  Obs.Metrics.add c_test 5;
  Obs.Metrics.incr c_test;
  Obs.Metrics.observe_max g_test 9;
  Obs.Metrics.observe_max g_test 4;
  List.iter (Obs.Metrics.observe h_test) [ 1; 10; 11; 100; 101; 9999 ];
  Alcotest.(check int) "counter sums" 6 (snapshot_value "test.counter");
  Alcotest.(check int) "gauge keeps the max" 9 (snapshot_value "test.gauge");
  Alcotest.(check int) "le=10 bucket" 2 (snapshot_value "test.hist{le=10}");
  Alcotest.(check int) "le=100 bucket" 2 (snapshot_value "test.hist{le=100}");
  Alcotest.(check int) "overflow bucket" 2 (snapshot_value "test.hist{le=inf}");
  Alcotest.(check bool) "unstable gauge dropped from stable snapshot" true
    (List.assoc_opt "test.gauge" (Obs.Metrics.snapshot ~stable_only:true ())
    = None)

let test_metrics_sharded_sum () =
  (* Concurrent increments from pool domains must aggregate exactly:
     4 domains x 25 tasks x 40 increments. *)
  with_metrics @@ fun () ->
  let pool = Parallel.Pool.create ~jobs:4 in
  Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown pool) @@ fun () ->
  ignore
    (Parallel.Pool.map pool
       (fun _ ->
         for _ = 1 to 40 do
           Obs.Metrics.incr c_test
         done)
       (Array.make 100 ()));
  Alcotest.(check int) "no lost increments" 4000 (snapshot_value "test.counter")

let test_metrics_jobs_invariant () =
  (* The determinism contract, now with tracing switched on too: the
     stable snapshot after the same mapping work is byte-identical at
     -j 1 and -j 4, and recording spans must not perturb it. *)
  let net = Gen.Suite.build_exn "cm150" in
  let snap jobs =
    with_metrics @@ fun () ->
    with_trace @@ fun () ->
    Parallel.Pool.set_jobs jobs;
    Fun.protect ~finally:(fun () -> Parallel.Pool.set_jobs 1) @@ fun () ->
    ignore (Mapper.Multi.sweep net);
    Obs.Metrics.snapshot ~stable_only:true ()
  in
  let s1 = snap 1 and s4 = snap 4 in
  Alcotest.(check (list (pair string int)))
    "stable metric totals identical at -j1 and -j4" s1 s4;
  Alcotest.(check bool) "the sweep actually counted mapper work" true
    (List.assoc "mapper.nodes" s1 > 0)

(* ---------------- Metrics.quantile / log_buckets ---------------- *)

let test_log_buckets () =
  Alcotest.(check (array int)) "1-2-5 ladder"
    [| 10; 20; 50; 100; 200; 500; 1000 |]
    (Obs.Metrics.log_buckets ~lo:10 ~hi:1000);
  Alcotest.(check (array int)) "hi between grid points truncates"
    [| 1; 2; 5; 10; 20 |]
    (Obs.Metrics.log_buckets ~lo:1 ~hi:40);
  let lat = Obs.Metrics.log_buckets ~lo:1_000 ~hi:10_000_000_000 in
  Alcotest.(check bool) "daemon latency ladder strictly increasing" true
    (Array.for_all (fun x -> x > 0) lat
    && Array.for_all2 ( < ) (Array.sub lat 0 (Array.length lat - 1))
         (Array.sub lat 1 (Array.length lat - 1)));
  Alcotest.(check bool) "rejects a bad range" true
    (match Obs.Metrics.log_buckets ~lo:0 ~hi:10 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_quantile () =
  let bounds = [| 10; 100 |] in
  let counts = [| 2; 2; 2 |] in
  let q p = Obs.Metrics.quantile ~bounds ~counts p in
  Alcotest.(check (float 1e-9)) "median interpolates within its bucket"
    55.0 (q 0.5);
  Alcotest.(check (float 1e-9)) "q=0 is the bucket floor" 0.0 (q 0.0);
  Alcotest.(check (float 1e-9)) "overflow rank clamps to the last bound"
    100.0 (q 1.0);
  Alcotest.(check (float 1e-9)) "out-of-range q clamps" 100.0 (q 2.5);
  Alcotest.(check (float 1e-9)) "empty histogram estimates 0" 0.0
    (Obs.Metrics.quantile ~bounds ~counts:[| 0; 0; 0 |] 0.9);
  (* Rank landing exactly on a cumulative boundary takes that bucket's
     upper bound. *)
  Alcotest.(check (float 1e-9)) "boundary rank" 10.0
    (Obs.Metrics.quantile ~bounds ~counts:[| 2; 0; 2 |] 0.5);
  Alcotest.(check bool) "empty bounds rejected" true
    (match Obs.Metrics.quantile ~bounds:[||] ~counts:[| 1 |] 0.5 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "counts arity mismatch rejected" true
    (match Obs.Metrics.quantile ~bounds ~counts:[| 1; 2 |] 0.5 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_metrics_families () =
  with_metrics @@ fun () ->
  Obs.Metrics.add c_test 3;
  Obs.Metrics.observe_max g_test 8;
  List.iter (Obs.Metrics.observe h_test) [ 5; 50; 500 ];
  let fam name =
    match
      List.find_opt
        (fun f -> f.Obs.Metrics.f_name = name)
        (Obs.Metrics.families ())
    with
    | Some f -> f
    | None -> Alcotest.fail ("family missing: " ^ name)
  in
  (match (fam "test.counter").Obs.Metrics.f_value with
  | Obs.Metrics.Counter v -> Alcotest.(check int) "counter family" 3 v
  | _ -> Alcotest.fail "test.counter not a Counter");
  (match (fam "test.gauge").Obs.Metrics.f_value with
  | Obs.Metrics.Gauge v -> Alcotest.(check int) "gauge family" 8 v
  | _ -> Alcotest.fail "test.gauge not a Gauge");
  (match (fam "test.hist").Obs.Metrics.f_value with
  | Obs.Metrics.Histogram { bounds; counts; vsum } ->
      Alcotest.(check (array int)) "histogram bounds" [| 10; 100 |] bounds;
      Alcotest.(check (array int)) "per-bucket counts" [| 1; 1; 1 |] counts;
      Alcotest.(check int) "value sum" 555 vsum
  | _ -> Alcotest.fail "test.hist not a Histogram");
  Alcotest.(check bool) "unstable gauge dropped from stable families" true
    (List.for_all
       (fun f -> f.Obs.Metrics.f_name <> "test.gauge")
       (Obs.Metrics.families ~stable_only:true ()))

(* ---------------- Obs.Expose ---------------- *)

let test_expose_roundtrip () =
  with_metrics @@ fun () ->
  Obs.Metrics.add c_test 7;
  Obs.Metrics.observe_max g_test 4;
  List.iter (Obs.Metrics.observe h_test) [ 5; 50; 500; 500 ];
  let text = Obs.Expose.render ~extra_gauges:[ ("queue_depth", 3) ] () in
  Alcotest.(check bool) "terminated by # EOF" true
    (let lines = String.split_on_char '\n' text in
     List.mem "# EOF" lines);
  let samples = Obs.Expose.parse text in
  Alcotest.(check (option (float 1e-9))) "counter rendered as _total"
    (Some 7.0)
    (Obs.Expose.value samples "test_counter_total");
  Alcotest.(check (option (float 1e-9))) "gauge rendered bare" (Some 4.0)
    (Obs.Expose.value samples "test_gauge");
  Alcotest.(check (option (float 1e-9))) "extra live gauge exposed"
    (Some 3.0)
    (Obs.Expose.value samples "queue_depth");
  Alcotest.(check bool) "gc gauges appended" true
    (Obs.Expose.value samples "gc_minor_words" <> None);
  Alcotest.(check (option (float 1e-9))) "histogram _sum" (Some 1055.0)
    (Obs.Expose.value samples "test_hist_sum");
  Alcotest.(check (option (float 1e-9))) "histogram _count" (Some 4.0)
    (Obs.Expose.value samples "test_hist_count");
  (match Obs.Expose.histogram_of samples "test_hist" with
  | None -> Alcotest.fail "histogram rows did not reassemble"
  | Some (bounds, counts) ->
      Alcotest.(check (array int)) "bounds survive the round-trip"
        [| 10; 100 |] bounds;
      Alcotest.(check (array int)) "cumulative rows de-cumulate"
        [| 1; 1; 2 |] counts;
      Alcotest.(check (float 1e-9)) "quantile over a scrape"
        100.0
        (Obs.Metrics.quantile ~bounds ~counts 0.99));
  (* Sanitization: every sample name is a legal OpenMetrics name. *)
  let legal c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9') || c = '_' || c = ':'
  in
  List.iter
    (fun s ->
      Alcotest.(check bool)
        ("name legal: " ^ s.Obs.Expose.s_name)
        true
        (String.for_all legal s.Obs.Expose.s_name))
    samples

(* ---------------- Obs.Flight ---------------- *)

let with_flight ?(capacity = 1024) f =
  Obs.Flight.clear ();
  Obs.Flight.set_capacity capacity;
  Obs.Flight.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Flight.set_enabled false;
      Obs.Flight.set_capacity 1024;
      Obs.Flight.clear ())
    f

let test_flight_disabled_free () =
  Obs.Flight.clear ();
  Alcotest.(check bool) "recorder off" false (Obs.Flight.enabled ());
  Obs.Flight.record ~id:"x" ~detail:"quiet" "reject";
  Alcotest.(check int) "disabled record ignored" 0 (Obs.Flight.recorded ())

let test_flight_ring () =
  with_flight ~capacity:4 @@ fun () ->
  for i = 1 to 6 do
    Obs.Flight.record ~id:(Printf.sprintf "r%d" i) ~detail:"d" ~v:i "reject"
  done;
  Alcotest.(check int) "total ever recorded" 6 (Obs.Flight.recorded ());
  let evs = Obs.Flight.events () in
  Alcotest.(check int) "window is the ring capacity" 4 (List.length evs);
  Alcotest.(check (list int)) "oldest fell off, order kept"
    [ 3; 4; 5; 6 ]
    (List.map (fun e -> e.Obs.Flight.v) evs);
  Alcotest.(check bool) "timestamps monotone" true
    (let rec mono = function
       | a :: (b :: _ as rest) ->
           Int64.compare a.Obs.Flight.ts b.Obs.Flight.ts <= 0 && mono rest
       | _ -> true
     in
     mono evs);
  let buf = Buffer.create 256 in
  Obs.Flight.dump buf;
  let doc = Obs.Json.parse_exn (Buffer.contents buf) in
  let n k = Option.bind (Obs.Json.member k doc) Obs.Json.to_int in
  Alcotest.(check (option int)) "dump capacity" (Some 4) (n "capacity");
  Alcotest.(check (option int)) "dump recorded" (Some 6) (n "recorded");
  Alcotest.(check (option int)) "dump dropped" (Some 2) (n "dropped");
  (match Option.bind (Obs.Json.member "events" doc) Obs.Json.to_list with
  | Some l ->
      Alcotest.(check int) "dump events" 4 (List.length l);
      List.iter
        (fun e ->
          Alcotest.(check bool) "event members" true
            (Obs.Json.member "ts_ns" e <> None
            && Option.bind (Obs.Json.member "kind" e) Obs.Json.to_string
               = Some "reject"
            && Obs.Json.member "id" e <> None
            && Obs.Json.member "v" e <> None))
        l
  | None -> Alcotest.fail "dump has no events array");
  Obs.Flight.clear ();
  Alcotest.(check int) "clear forgets" 0 (Obs.Flight.recorded ())

let test_flight_write_file () =
  with_flight @@ fun () ->
  Obs.Flight.record ~detail:"deadline" "budget";
  let path = Filename.temp_file "soimap" "-flight.json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  (match Obs.Flight.write_file path with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("flight write failed: " ^ e));
  match Obs.Json.of_file path with
  | Error e -> Alcotest.fail ("flight file rejected: " ^ e)
  | Ok doc ->
      Alcotest.(check bool) "budget event persisted" true
        (match Option.bind (Obs.Json.member "events" doc) Obs.Json.to_list with
        | Some l ->
            List.exists
              (fun e ->
                Option.bind (Obs.Json.member "kind" e) Obs.Json.to_string
                = Some "budget")
              l
        | None -> false)

(* ---------------- Obs.Trace ---------------- *)

let test_trace_disabled_free () =
  Obs.Trace.clear ();
  Alcotest.(check bool) "tracing off" false (Obs.Trace.enabled ());
  Obs.Trace.with_span "quiet" (fun () -> ());
  Obs.Trace.instant "quiet-instant";
  Alcotest.(check int) "no events buffered" 0 (Obs.Trace.event_count ());
  let buf = Buffer.create 64 in
  Obs.Trace.export buf;
  let doc = Obs.Json.parse_exn (Buffer.contents buf) in
  Alcotest.(check (option int)) "export is an empty traceEvents array"
    (Some 0)
    (Option.bind
       (Option.bind (Obs.Json.member "traceEvents" doc) Obs.Json.to_list)
       (fun l ->
         Some
           (List.length
              (List.filter
                 (fun e ->
                   Option.bind (Obs.Json.member "ph" e) Obs.Json.to_string
                   = Some "X")
                 l))))

let test_trace_well_formed () =
  with_trace @@ fun () ->
  let r =
    Obs.Trace.with_span ~cat:"t" "outer"
      ~args:(fun () -> [ ("k", "v") ])
      (fun () ->
        Obs.Trace.with_span ~cat:"t" "inner" (fun () -> ());
        Obs.Trace.instant "mark";
        17)
  in
  Alcotest.(check int) "with_span returns the thunk's value" 17 r;
  (try Obs.Trace.with_span "raising" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "span recorded despite the raise" true
    (List.exists (fun (n, _, _, _) -> n = "raising") (Obs.Trace.summary ()));
  let buf = Buffer.create 256 in
  Obs.Trace.export buf;
  let doc = Obs.Json.parse_exn (Buffer.contents buf) in
  let events =
    match Option.bind (Obs.Json.member "traceEvents" doc) Obs.Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents array"
  in
  let field name e = Option.bind (Obs.Json.member name e) in
  let xs =
    List.filter
      (fun e -> field "ph" e Obs.Json.to_string = Some "X")
      events
  in
  Alcotest.(check int) "three complete spans" 3 (List.length xs);
  List.iter
    (fun e ->
      Alcotest.(check bool) "X event has non-negative ts and dur" true
        (match (field "ts" e Obs.Json.to_float, field "dur" e Obs.Json.to_float)
         with
        | Some ts, Some dur -> ts >= 0.0 && dur >= 0.0
        | _ -> false))
    xs;
  (* Events are exported sorted: timestamps never run backwards. *)
  let stamps =
    List.filter_map
      (fun e ->
        if field "ph" e Obs.Json.to_string = Some "M" then None
        else field "ts" e Obs.Json.to_float)
      events
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "timestamps sorted" true (monotone stamps);
  Alcotest.(check bool) "instant event present" true
    (List.exists
       (fun e ->
         field "ph" e Obs.Json.to_string = Some "i"
         && field "name" e Obs.Json.to_string = Some "mark")
       events);
  Alcotest.(check bool) "span args exported" true
    (List.exists
       (fun e ->
         field "name" e Obs.Json.to_string = Some "outer"
         && Option.bind (Obs.Json.member "args" e) (Obs.Json.member "k")
            |> Fun.flip Option.bind Obs.Json.to_string
            = Some "v")
       xs)

let test_trace_capacity () =
  with_trace @@ fun () ->
  Obs.Trace.set_capacity 2;
  Fun.protect ~finally:(fun () -> Obs.Trace.set_capacity 0) @@ fun () ->
  for _ = 1 to 5 do
    Obs.Trace.with_span "bounded" (fun () -> ())
  done;
  Alcotest.(check int) "buffer stops at the bound" 2 (Obs.Trace.event_count ());
  Alcotest.(check int) "overflow is counted, not silent" 3
    (Obs.Trace.dropped_events ());
  Obs.Trace.clear ();
  Alcotest.(check int) "clear zeroes the drop counter" 0
    (Obs.Trace.dropped_events ())

let test_span_at () =
  with_trace @@ fun () ->
  (* A synthesized tree with explicit endpoints, the way the daemon
     reconstructs a request from timestamps captured on other threads:
     parent spans the whole window, children partition it. *)
  let t0 = Obs.Clock.now_ns () in
  let at off = Int64.add t0 (Int64.of_int off) in
  Obs.Trace.span_at ~cat:"service" ~args:[ ("trace_id", "t-1") ] ~ts:(at 0)
    ~dur:3000L "service.request";
  Obs.Trace.span_at ~cat:"service" ~ts:(at 0) ~dur:1000L "service.queue";
  Obs.Trace.span_at ~cat:"service" ~ts:(at 1000) ~dur:2000L "service.map";
  let buf = Buffer.create 256 in
  Obs.Trace.export buf;
  let doc = Obs.Json.parse_exn (Buffer.contents buf) in
  let events =
    match Option.bind (Obs.Json.member "traceEvents" doc) Obs.Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents array"
  in
  let span name =
    match
      List.find_opt
        (fun e ->
          Option.bind (Obs.Json.member "name" e) Obs.Json.to_string
          = Some name)
        events
    with
    | Some e -> e
    | None -> Alcotest.fail ("span missing: " ^ name)
  in
  let num k e = Option.bind (Obs.Json.member k e) Obs.Json.to_float in
  let parent = span "service.request" in
  Alcotest.(check (option (float 1e-9))) "explicit duration survives (us)"
    (Some 3.0) (num "dur" parent);
  Alcotest.(check bool) "args carried" true
    (Option.bind (Obs.Json.member "args" parent) (Obs.Json.member "trace_id")
     |> Fun.flip Option.bind Obs.Json.to_string
    = Some "t-1");
  (* Temporal containment: children sit inside the parent window, so the
     viewer nests them. *)
  let window e =
    match (num "ts" e, num "dur" e) with
    | Some ts, Some d -> (ts, ts +. d)
    | _ -> Alcotest.fail "span without ts/dur"
  in
  let plo, phi = window parent in
  List.iter
    (fun n ->
      let lo, hi = window (span n) in
      Alcotest.(check bool) (n ^ " contained in the request span") true
        (plo <= lo && hi <= phi))
    [ "service.queue"; "service.map" ]

let test_trace_streaming () =
  with_trace @@ fun () ->
  let path = Filename.temp_file "soimap" "-stream.json" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.stream_close ();
      try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  (match Obs.Trace.stream_open ~process_name:"test" path with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("stream_open: " ^ e));
  Alcotest.(check bool) "stream reported open" true (Obs.Trace.streaming ());
  Alcotest.(check bool) "second open refused" true
    (Result.is_error (Obs.Trace.stream_open "/tmp/never"));
  Obs.Trace.with_span ~cat:"t" "first" (fun () -> ());
  Obs.Trace.stream_flush ();
  Alcotest.(check int) "flush drained the buffers" 0
    (Obs.Trace.event_count ());
  (* Crash tolerance: the file is the JSON-array flavour and must be
     loadable before the clean close — viewers accept a missing close
     bracket; our strict reader needs it appended. *)
  let slurp () =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let parse_events s =
    match Obs.Json.parse s with
    | Ok (Obs.Json.Arr l) -> l
    | Ok _ -> Alcotest.fail "stream is not a JSON array"
    | Error e -> Alcotest.fail ("stream rejected: " ^ e)
  in
  let mid = parse_events (slurp () ^ "]") in
  let named n l =
    List.exists
      (fun e ->
        Option.bind (Obs.Json.member "name" e) Obs.Json.to_string = Some n)
      l
  in
  Alcotest.(check bool) "span visible before close" true (named "first" mid);
  Alcotest.(check bool) "process_name metadata leads" true
    (named "process_name" mid);
  Obs.Trace.with_span ~cat:"t" "second" (fun () -> ());
  Obs.Trace.stream_close ();
  Alcotest.(check bool) "stream reported closed" false (Obs.Trace.streaming ());
  let final = parse_events (slurp ()) in
  Alcotest.(check bool) "clean close terminates the array" true
    (named "first" final && named "second" final);
  Alcotest.(check bool) "thread_name metadata emitted" true
    (named "thread_name" final)

(* ---------------- CLI surface ---------------- *)

let run_lines cmd =
  let ic = Unix.open_process_in cmd in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = go [] in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> lines
  | _ -> Alcotest.fail ("command failed: " ^ cmd)

(* The stdout lines of a [--stats=json] run and its one JSON line. *)
let stats_run cmd =
  let lines = run_lines cmd in
  match List.filter (fun l -> String.length l > 0 && l.[0] = '{') lines with
  | [ l ] -> (lines, Obs.Json.parse_exn l)
  | _ -> Alcotest.fail "expected exactly one JSON stats line"

let metric doc path =
  Option.bind (Obs.Json.member "metrics" doc) (Obs.Json.member path)
  |> Fun.flip Option.bind Obs.Json.to_int

let test_cli_stats_json () =
  let _, doc =
    stats_run "../bin/soimap.exe --bench cm150 --stats=json 2>/dev/null"
  in
  let int_member = metric doc in
  Alcotest.(check bool) "mapper.gates counted" true
    (match int_member "mapper.gates" with Some n -> n > 0 | None -> false);
  Alcotest.(check bool) "gc section present" true
    (Option.bind (Obs.Json.member "gc" doc)
       (Obs.Json.member "gc.minor_words")
    <> None);
  Alcotest.(check bool) "span summary present" true
    (match Option.bind (Obs.Json.member "spans" doc) Obs.Json.to_list with
    | Some (_ :: _) -> true
    | _ -> false)

(* [mapper.discharges] counts the discharges of the circuits the mapper
   emits: over every flow, the sum of the Tdisch values soimap prints. *)
let test_cli_discharges_metric () =
  let lines, doc =
    stats_run
      "../bin/soimap.exe --bench des --flow all --stats=json 2>/dev/null"
  in
  let printed =
    List.fold_left
      (fun acc l ->
        List.fold_left
          (fun acc tok ->
            match String.split_on_char '=' tok with
            | [ "Tdisch"; n ] -> acc + int_of_string n
            | _ -> acc)
          acc (String.split_on_char ' ' l))
      0 lines
  in
  Alcotest.(check bool) "three flows printed discharges" true (printed > 0);
  Alcotest.(check (option int)) "mapper.discharges = sum of Tdisch"
    (Some printed) (metric doc "mapper.discharges")

let test_cli_trace_file () =
  let path = Filename.temp_file "soimap" "-trace.json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  ignore
    (run_lines
       (Printf.sprintf
          "../bin/soimap.exe --bench cm150 --verify --trace %s 2>/dev/null"
          (Filename.quote path)));
  let doc =
    match Obs.Json.of_file path with
    | Ok d -> d
    | Error e -> Alcotest.fail ("trace file rejected: " ^ e)
  in
  let events =
    match Option.bind (Obs.Json.member "traceEvents" doc) Obs.Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents array"
  in
  let named n =
    List.exists
      (fun e ->
        Option.bind (Obs.Json.member "name" e) Obs.Json.to_string = Some n)
      events
  in
  Alcotest.(check bool) "prepare span present" true (named "mapper.prepare");
  Alcotest.(check bool) "map span present" true (named "engine.map");
  Alcotest.(check bool) "verify span present" true (named "cli.verify")

(* A request's GC delta is its own domain's: a second domain allocating
   ~30M words meanwhile must not be billed to the snapshot's domain. *)
let test_gcstats_per_domain () =
  let churn words =
    for i = 1 to words / 3 do
      ignore (Sys.opaque_identity (i, i))
    done
  in
  let before = Obs.Gcstats.snap () in
  let other =
    Domain.spawn (fun () ->
        let s = Obs.Gcstats.snap () in
        churn 30_000_000;
        Obs.Gcstats.delta s)
  in
  let theirs = Domain.join other in
  churn 30_000;
  let ours = Obs.Gcstats.delta before in
  Alcotest.(check bool)
    (Printf.sprintf "second domain counted its own churn (%d words)"
       theirs.Obs.Gcstats.minor_words)
    true
    (theirs.Obs.Gcstats.minor_words >= 29_000_000);
  Alcotest.(check bool)
    (Printf.sprintf "caller billed only its own words (%d)"
       ours.Obs.Gcstats.minor_words)
    true
    (ours.Obs.Gcstats.minor_words >= 30_000
    && ours.Obs.Gcstats.minor_words < 1_000_000)

let suite =
  [
    Alcotest.test_case "json values" `Quick test_json_values;
    Alcotest.test_case "json errors" `Quick test_json_errors;
    Alcotest.test_case "json long string" `Quick test_json_long_string;
    Alcotest.test_case "json escape round-trip" `Quick test_json_escape_roundtrip;
    Alcotest.test_case "json reads fuzz report" `Quick test_json_roundtrip_report;
    Alcotest.test_case "metrics disabled path" `Quick test_metrics_disabled_free;
    Alcotest.test_case "metrics aggregation" `Quick test_metrics_aggregation;
    Alcotest.test_case "metrics sharded sum" `Quick test_metrics_sharded_sum;
    Alcotest.test_case "metrics -j invariance" `Slow test_metrics_jobs_invariant;
    Alcotest.test_case "log bucket ladder" `Quick test_log_buckets;
    Alcotest.test_case "quantile estimation" `Quick test_quantile;
    Alcotest.test_case "metrics typed families" `Quick test_metrics_families;
    Alcotest.test_case "openmetrics round-trip" `Quick test_expose_roundtrip;
    Alcotest.test_case "flight disabled path" `Quick test_flight_disabled_free;
    Alcotest.test_case "flight ring" `Quick test_flight_ring;
    Alcotest.test_case "flight write file" `Quick test_flight_write_file;
    Alcotest.test_case "trace disabled path" `Quick test_trace_disabled_free;
    Alcotest.test_case "trace well-formed" `Quick test_trace_well_formed;
    Alcotest.test_case "trace capacity bound" `Quick test_trace_capacity;
    Alcotest.test_case "synthesized span tree" `Quick test_span_at;
    Alcotest.test_case "trace streaming sink" `Quick test_trace_streaming;
    Alcotest.test_case "cli stats json" `Slow test_cli_stats_json;
    Alcotest.test_case "cli trace file" `Slow test_cli_trace_file;
    Alcotest.test_case "cli discharges metric" `Slow test_cli_discharges_metric;
    Alcotest.test_case "gc deltas are per-domain" `Quick test_gcstats_per_domain;
  ]
