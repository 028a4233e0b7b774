(* The mapping daemon: protocol totality, end-to-end requests against an
   in-process server, admission control, request isolation, warm-cache
   transparency over the wire, graceful drain, and the chaos drill. *)

let check = Alcotest.check
let cb = Alcotest.(check bool)
let ci = Alcotest.(check int)
let cs = Alcotest.(check string)

(* ---------------- protocol ---------------- *)

let test_addr () =
  (match Service.Protocol.addr_of_string "unix:/tmp/x.sock" with
  | Ok (Service.Protocol.Unix_sock p) -> cs "unix path" "/tmp/x.sock" p
  | _ -> Alcotest.fail "unix addr did not parse");
  (match Service.Protocol.addr_of_string "tcp::7431" with
  | Ok (Service.Protocol.Tcp (h, p)) ->
      cs "default host" "127.0.0.1" h;
      ci "port" 7431 p
  | _ -> Alcotest.fail "tcp addr did not parse");
  List.iter
    (fun bad ->
      cb (Printf.sprintf "%S rejected" bad) true
        (Result.is_error (Service.Protocol.addr_of_string bad)))
    [ "bogus"; "tcp:nope"; "tcp:host:0"; "tcp:host:99999"; "unix:"; "" ]

let test_request_parsing () =
  (match
     Service.Protocol.parse_request
       {|{"id":"r1","op":"map","format":"suite","payload":"z4ml","timeout":2.5,"w_max":4}|}
   with
  | Ok { Service.Protocol.id; body = Service.Protocol.Map p; _ } ->
      cs "id" "r1" id;
      cs "payload" "z4ml" p.Service.Protocol.payload;
      ci "w_max" 4 p.Service.Protocol.w_max;
      cb "timeout" true (p.Service.Protocol.timeout = Some 2.5)
  | Ok _ -> Alcotest.fail "parsed to the wrong body"
  | Error e -> Alcotest.fail ("map request rejected: " ^ e));
  (match Service.Protocol.parse_request {|{"op":"ping"}|} with
  | Ok { Service.Protocol.body = Service.Protocol.Ping; _ } -> ()
  | _ -> Alcotest.fail "ping did not parse");
  (* Totality: each of these must come back Error, never raise — and
     the budget rules are the CLI's --timeout 0 rules. *)
  List.iter
    (fun bad ->
      match Service.Protocol.parse_request bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted: " ^ bad))
    [
      "not json";
      "[1,2,3]";
      {|{"op":"map","payload":"z4ml"}|};
      {|{"op":"map","format":"suite"}|};
      {|{"op":"map","format":"xml","payload":"x"}|};
      {|{"op":"teapot"}|};
      {|{"op":"map","format":"suite","payload":"z4ml","timeout":0}|};
      {|{"op":"map","format":"suite","payload":"z4ml","timeout":-1}|};
      {|{"op":"map","format":"suite","payload":"z4ml","max_tuples":0}|};
      {|{"op":"map","format":"suite","payload":"z4ml","max_bdd_nodes":-5}|};
      {|{"op":"map","format":"suite","payload":"z4ml","w_max":0}|};
      {|{"op":"map","format":"suite","payload":"z4ml","w_max":1}|};
      {|{"op":"map","format":"suite","payload":"z4ml","h_max":1}|};
      {|{"op":"map","format":"suite","payload":"z4ml","w_max":17}|};
      {|{"op":"map","format":"suite","payload":"z4ml","delay_ms":-1}|};
      {|{"op":"map","format":"suite","payload":"z4ml","on_exhaust":"panic"}|};
      {|{"op":"remap","format":"suite","payload":"z4ml"}|};
      {|{"op":"remap","format":"suite","payload":"z4ml","base":"mux","rewrite":2}|};
    ];
  match
    Service.Protocol.parse_request
      {|{"id":"r","op":"remap","format":"suite","base":"mux","payload":"z4ml"}|}
  with
  | Ok { Service.Protocol.body = Service.Protocol.Remap { base; params }; _ } ->
      cs "remap base" "mux" base;
      cs "remap payload" "z4ml" params.Service.Protocol.payload
  | Ok _ -> Alcotest.fail "remap parsed to the wrong body"
  | Error e -> Alcotest.fail ("remap request rejected: " ^ e)

(* ---------------- in-process daemon harness ---------------- *)

let fresh_sock_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "soimapd-test-%d-%d.sock" (Unix.getpid ()) !counter)

let with_server ?(tweak = fun c -> c) f =
  let path = fresh_sock_path () in
  let addr = Service.Protocol.Unix_sock path in
  let cfg = tweak (Service.Server.default_config ~addr) in
  let srv = Service.Server.create cfg in
  let run_result = ref (Error "server never ran") in
  let runner = Thread.create (fun () -> run_result := Service.Server.run srv) () in
  let deadline = Int64.add (Obs.Clock.now_ns ()) 5_000_000_000L in
  while
    (not (Service.Server.listening srv))
    && Int64.compare (Obs.Clock.now_ns ()) deadline < 0
  do
    Thread.yield ()
  done;
  cb "server came up" true (Service.Server.listening srv);
  Fun.protect
    ~finally:(fun () ->
      Service.Server.request_stop srv;
      Thread.join runner;
      cb "run returned a clean drain" true (!run_result = Ok ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () -> f addr srv)

let connect addr =
  match Service.Client.connect_retry addr with
  | Ok c -> c
  | Error msg -> Alcotest.fail ("client connect: " ^ msg)

let request c line =
  match Service.Client.request c line with
  | Ok j -> j
  | Error msg -> Alcotest.fail ("request failed: " ^ msg)

let status j =
  match Service.Protocol.response_status j with
  | Ok s -> s
  | Error msg -> Alcotest.fail msg

let ledger_of srv =
  let t = Service.Server.totals srv in
  fun k -> try List.assoc k t with Not_found -> Alcotest.fail ("no total " ^ k)

(* The registry is a process-global switch (soimap --serve flips it on);
   these tests restore the disabled state so the rest of the suite keeps
   measuring the null sink. *)
let with_metrics f =
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ())
    f

(* ---------------- end-to-end ---------------- *)

let test_end_to_end () =
  with_server @@ fun addr srv ->
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Service.Client.close c) @@ fun () ->
  cs "ping" "ok" (status (request c {|{"id":"p","op":"ping"}|}));
  let j =
    request c {|{"id":"m1","op":"map","format":"suite","payload":"z4ml"}|}
  in
  cs "map status" "ok" (status j);
  (match Obs.Json.member "id" j with
  | Some (Obs.Json.Str "m1") -> ()
  | _ -> Alcotest.fail "response did not echo the request id");
  let counts = Option.get (Obs.Json.member "counts" j) in
  let n k = Option.get (Obs.Json.to_int (Option.get (Obs.Json.member k counts))) in
  (* Same circuit the library maps directly: the daemon adds transport,
     not mapping behaviour. *)
  let r = Mapper.Algorithms.soi_domino_map (Gen.Suite.build_exn "z4ml") in
  ci "t_total over the wire" r.Mapper.Algorithms.counts.Domino.Circuit.t_total
    (n "t_total");
  ci "gates over the wire" r.Mapper.Algorithms.counts.Domino.Circuit.gate_count
    (n "gates");
  (* A malformed frame is an error response, and the connection then
     still serves real requests (resync at the next newline). *)
  cs "malformed frame" "error" (status (request c "{{{"));
  cs "still serving after the error" "ok"
    (status (request c {|{"id":"m2","op":"map","format":"suite","payload":"z4ml"}|}));
  let get = ledger_of srv in
  ci "ledger balances" (get "requests")
    (get "ok" + get "degraded" + get "failed" + get "rejected");
  ci "errors counted" 1 (get "errors")

let test_warm_cache_identity () =
  (* The acceptance bar for the shared warm cache: the dump a warm
     daemon returns is byte-identical to a cold one-shot mapping. *)
  with_server @@ fun addr _srv ->
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Service.Client.close c) @@ fun () ->
  let dump_of j =
    match Obs.Json.member "dump" j with
    | Some (Obs.Json.Str d) -> d
    | _ -> Alcotest.fail "response carried no dump"
  in
  let line =
    {|{"id":"d","op":"map","format":"suite","payload":"cordic","dump":true}|}
  in
  let cold = request c line in
  let warm = request c line in
  cs "cold status" "ok" (status cold);
  cs "warm status" "ok" (status warm);
  let reference =
    Domino.Circuit.dump
      (Mapper.Algorithms.soi_domino_map (Gen.Suite.build_exn "cordic"))
        .Mapper.Algorithms.circuit
  in
  cs "cold dump = one-shot dump" reference (dump_of cold);
  cs "warm dump = cold dump" (dump_of cold) (dump_of warm)

let test_remap_op () =
  (* The remap op's acceptance bar: byte-faithful to a cold map of the
     edited payload, reporting the nodes it re-priced (dirty) and
     reused (clean).  Those counts depend on what the daemon's shared
     memo already holds. *)
  with_server @@ fun addr srv ->
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Service.Client.close c) @@ fun () ->
  let dump_of j =
    match Obs.Json.member "dump" j with
    | Some (Obs.Json.Str d) -> d
    | _ -> Alcotest.fail "response carried no dump"
  in
  let remap_field j k =
    match Obs.Json.member "remap" j with
    | Some r ->
        Option.get (Obs.Json.to_int (Option.get (Obs.Json.member k r)))
    | None -> Alcotest.fail "response carried no remap block"
  in
  let reference_of bench =
    Domino.Circuit.dump
      (Mapper.Algorithms.soi_domino_map (Gen.Suite.build_exn bench))
        .Mapper.Algorithms.circuit
  in
  let reference = reference_of "z4ml" in
  let accounted what j =
    ci (what ^ ": dirty + clean = nodes") (remap_field j "nodes")
      (remap_field j "dirty" + remap_field j "clean")
  in
  (* payload = base: nothing re-priced, dump identical *)
  let j =
    request c
      {|{"id":"r0","op":"remap","format":"suite","base":"z4ml","payload":"z4ml","dump":true}|}
  in
  cs "noop remap status" "ok" (status j);
  ci "noop remap: nothing re-priced" 0 (remap_field j "dirty");
  cb "noop remap: nodes reused" true (remap_field j "clean" > 0);
  accounted "noop remap" j;
  cs "noop remap dump = one-shot map dump" reference (dump_of j);
  (* another base: building z4ml's baseline left its tables in the
     shared memo, so z4ml against mux re-prices nothing *)
  let j =
    request c
      {|{"id":"r1","op":"remap","format":"suite","base":"mux","payload":"z4ml","dump":true}|}
  in
  cs "z4ml against mux: status" "ok" (status j);
  ci "z4ml against mux: nothing re-priced" 0 (remap_field j "dirty");
  accounted "z4ml against mux" j;
  cs "z4ml against mux: dump = one-shot map dump" reference (dump_of j);
  (* a payload the daemon has not mapped: re-priced, still byte-faithful *)
  let j =
    request c
      {|{"id":"r2","op":"remap","format":"suite","base":"mux","payload":"cordic","dump":true}|}
  in
  cs "cordic against mux: status" "ok" (status j);
  cb "cordic against mux: nodes re-priced" true (remap_field j "dirty" > 0);
  accounted "cordic against mux" j;
  cs "cordic against mux: dump = one-shot map dump" (reference_of "cordic")
    (dump_of j);
  let get = ledger_of srv in
  ci "ledger balances" (get "requests")
    (get "ok" + get "degraded" + get "failed" + get "rejected")

(* Every flow under every cost model: a daemon map of the payload, and a
   remap of it against base mux, both dump the circuit the library's
   [Algorithms.run] maps with the same flow and cost. *)
let test_flow_cost_identity () =
  with_server @@ fun addr _srv ->
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Service.Client.close c) @@ fun () ->
  let dump_of j =
    match Obs.Json.member "dump" j with
    | Some (Obs.Json.Str d) -> d
    | _ -> Alcotest.fail "response carried no dump"
  in
  List.iter
    (fun (flow_s, flow) ->
      List.iter
        (fun cost_s ->
          let cost_s =
            if cost_s = "depth" && flow <> Mapper.Algorithms.Soi_domino_map
            then "depth-bulk"
            else cost_s
          in
          let cost = Result.get_ok (Service.Protocol.cost_of_string cost_s) in
          List.iter
            (fun bench ->
              let reference =
                Domino.Circuit.dump
                  (Mapper.Algorithms.run ~cost flow (Gen.Suite.build_exn bench))
                    .Mapper.Algorithms.circuit
              in
              List.iter
                (fun (op, base) ->
                  let label = Printf.sprintf "%s %s/%s/%s" op flow_s cost_s bench in
                  let j =
                    request c
                      (Printf.sprintf
                         {|{"id":"%s","op":"%s",%s"format":"suite","payload":"%s","flow":"%s","cost":"%s","dump":true}|}
                         label op base bench flow_s cost_s)
                  in
                  cs (label ^ " status") "ok" (status j);
                  cs (label ^ " dump = library dump") reference (dump_of j))
                [ ("map", ""); ("remap", {|"base":"mux",|}) ])
            [ "z4ml"; "cordic" ])
        [ "area"; "depth"; "2" ])
    [
      ("bulk", Mapper.Algorithms.Domino_map);
      ("rs", Mapper.Algorithms.Rs_map);
      ("soi", Mapper.Algorithms.Soi_domino_map);
    ]

(* ---------------- framing ---------------- *)

(* A raw socket, so a test controls exactly how the bytes are chunked. *)
let raw_connect addr =
  match addr with
  | Service.Protocol.Unix_sock path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
      fd
  | Service.Protocol.Tcp _ -> Alcotest.fail "tests use unix sockets"

(* Write [data] in pieces of [sizes] (cycled), pausing after each so the
   server's reads see the pieces apart.  Stops quietly once the server
   has hung up: it closes a connection as soon as a frame outgrows
   [max_request_bytes], possibly before the rest of the frame is sent. *)
let write_chunked fd data sizes =
  let len = String.length data in
  let rec go off k =
    if off < len then begin
      let n = min (List.nth sizes (k mod List.length sizes)) (len - off) in
      match Unix.write_substring fd data off n with
      | _ ->
          Unix.sleepf 0.001;
          go (off + n) (k + 1)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
    end
  in
  go 0 0

(* Every line the server sends until it closes the socket, or until
   [n] lines have arrived. *)
let read_lines ?(n = max_int) fd =
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let lines () =
    List.filter (( <> ) "") (String.split_on_char '\n' (Buffer.contents buf))
  in
  let rec go () =
    let complete =
      String.length (Buffer.contents buf) > 0
      && String.ends_with ~suffix:"\n" (Buffer.contents buf)
    in
    if complete && List.length (lines ()) >= n then ()
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | k ->
          Buffer.add_subbytes buf chunk 0 k;
          go ()
      | exception Unix.Unix_error _ -> ()
  in
  go ();
  List.map Obs.Json.parse_exn (lines ())

let id_of j =
  match Obs.Json.member "id" j with
  | Some (Obs.Json.Str s) -> s
  | _ -> Alcotest.fail "response without an id"

let test_frame_chunking () =
  with_server @@ fun addr srv ->
  let fd = raw_connect addr in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  (* one frame in many short writes *)
  write_chunked fd
    {|{"id":"split","op":"map","format":"suite","payload":"z4ml"}|} [ 1; 3; 7 ];
  write_chunked fd "\n" [ 1 ];
  (match read_lines ~n:1 fd with
  | [ j ] ->
      cs "split frame answered" "split" (id_of j);
      cs "split frame mapped" "ok" (status j)
  | l -> Alcotest.failf "split frame: %d responses" (List.length l));
  (* two frames in one write, then a third split across two writes *)
  let write s = ignore (Unix.write_substring fd s 0 (String.length s)) in
  write {|{"id":"a","op":"ping"}
{"id":"b","op":"ping"}
{"id":"c","op"|};
  Unix.sleepf 0.01;
  write ":\"ping\"}\n";
  (match read_lines ~n:3 fd with
  | [ a; b; c ] ->
      cs "first of the pair" "a" (id_of a);
      cs "second of the pair" "b" (id_of b);
      cs "frame across writes" "c" (id_of c)
  | l -> Alcotest.failf "batched frames: %d responses" (List.length l));
  let get = ledger_of srv in
  ci "no frame errors" 0 (get "errors")

(* A line of exactly [max_request_bytes] is served and one byte more is
   refused, whatever the chunking. *)
let test_max_request_bytes () =
  let max = 512 in
  with_server ~tweak:(fun c -> { c with Service.Server.max_request_bytes = max })
  @@ fun addr _srv ->
  let ping len =
    let fixed = String.length {|{"id":"","op":"ping"}|} in
    Printf.sprintf {|{"id":"%s","op":"ping"}|} (String.make (len - fixed) 'x')
  in
  let chunkings =
    [ ("whole", [ max + 2 ]); ("short writes", [ 61 ]); ("at the bound", [ max; 1 ]) ]
  in
  List.iter
    (fun (how, sizes) ->
      let send line =
        let fd = raw_connect addr in
        Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
        write_chunked fd (line ^ "\n") sizes;
        read_lines ~n:1 fd
      in
      (match send (ping max) with
      | [ j ] -> cs (how ^ ": a line of exactly max bytes is served") "ok" (status j)
      | l -> Alcotest.failf "%s: %d responses at max bytes" how (List.length l));
      match send (ping (max + 1)) with
      | [ j ] ->
          cs (how ^ ": one byte over is an error") "error" (status j);
          cs (how ^ ": names the bound")
            (Printf.sprintf "request exceeds %d bytes" max)
            (match Obs.Json.member "reason" j with
            | Some (Obs.Json.Str r) -> r
            | _ -> "")
      | l -> Alcotest.failf "%s: %d responses at max+1 bytes" how (List.length l))
    chunkings

(* ---------------- remap baselines ---------------- *)

let blif_of_unate u = Blif.to_string (Unate.Unetwork.to_network u)

let remap_line ~id ~base payload =
  Printf.sprintf
    {|{"id":"%s","op":"remap","format":"blif","base":"%s","payload":"%s","dump":true}|}
    id
    (Service.Protocol.json_escape base)
    (Service.Protocol.json_escape payload)

let counter name =
  Option.value ~default:0 (List.assoc_opt name (Obs.Metrics.snapshot ()))

(* Run [f] with the default pool at [jobs] domains, so the daemon's
   one-job batches can run off the dispatchers' domain. *)
let with_jobs jobs f =
  Parallel.Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Parallel.Pool.set_jobs 1) f

(* Two designers alternating two bases: each baseline is built once and
   every later request hits it, and every answer is a cold map's. *)
let test_alternating_baselines () =
  with_jobs 2 @@ fun () ->
  with_metrics @@ fun () ->
  with_server @@ fun addr _srv ->
  let bases =
    Array.map
      (fun name -> Mapper.Algorithms.prepare (Gen.Suite.build_exn name))
      [| "cordic"; "z4ml" |]
  in
  let clients = Array.map (fun _ -> connect addr) bases in
  Fun.protect ~finally:(fun () -> Array.iter Service.Client.close clients)
  @@ fun () ->
  let rounds = 4 in
  for round = 1 to rounds do
    Array.iteri
      (fun k u0 ->
        let payload = blif_of_unate (Check.Edit.apply ~seed:((round * 31) + k) u0) in
        let id = Printf.sprintf "c%d-r%d" k round in
        let j = request clients.(k) (remap_line ~id ~base:(blif_of_unate u0) payload) in
        cs (id ^ " status") "ok" (status j);
        let reference =
          Domino.Circuit.dump
            (Mapper.Algorithms.soi_domino_map (Blif.parse_string payload))
              .Mapper.Algorithms.circuit
        in
        cs (id ^ " dump = cold map dump") reference
          (match Obs.Json.member "dump" j with
          | Some (Obs.Json.Str d) -> d
          | _ -> Alcotest.fail "no dump"))
      bases
  done;
  ci "each base built once" 2 (counter "service.remap.baseline_builds");
  ci "every later request hit its baseline"
    ((2 * rounds) - 2)
    (counter "service.remap.baseline_hits")

(* A remap that trips its budget follows [on_exhaust] exactly as a map
   does, whether the trip is in building the base or in the remap
   against a warm one; a base whose build tripped is not cached, and
   the next remap against the base is still a cold map's twin. *)
let test_remap_budget () =
  with_jobs 2 @@ fun () ->
  with_metrics @@ fun () ->
  with_server @@ fun addr srv ->
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Service.Client.close c) @@ fun () ->
  let dump_of j =
    match Obs.Json.member "dump" j with
    | Some (Obs.Json.Str d) -> d
    | _ -> Alcotest.fail "response carried no dump"
  in
  let degradations j =
    match Option.bind (Obs.Json.member "degradations" j) Obs.Json.to_list with
    | Some l -> List.length l
    | None -> Alcotest.fail "response carried no degradations"
  in
  let remap ~id ?(extra = "") payload =
    request c
      (Printf.sprintf
         {|{"id":"%s","op":"remap","format":"suite","base":"mux","payload":"%s","dump":true%s}|}
         id payload extra)
  in
  let cold bench =
    Domino.Circuit.dump
      (Mapper.Algorithms.soi_domino_map (Gen.Suite.build_exn bench))
        .Mapper.Algorithms.circuit
  in
  let degraded_map =
    request c
      {|{"id":"m","op":"map","format":"suite","payload":"c880","max_tuples":1,"dump":true}|}
  in
  cs "tripped map degrades" "degraded" (status degraded_map);
  let tripped ~when_ =
    let j = remap ~id:(when_ ^ "-degrade") ~extra:{|,"max_tuples":1|} "c880" in
    cs (when_ ^ ": tripped remap degrades") "degraded" (status j);
    cb (when_ ^ ": degradations listed") true (degradations j > 0);
    cs (when_ ^ ": degraded remap dump = degraded map dump")
      (dump_of degraded_map) (dump_of j);
    cs (when_ ^ ": tripped remap fails under fail") "failed"
      (status
         (remap ~id:(when_ ^ "-fail")
            ~extra:{|,"max_tuples":1,"on_exhaust":"fail"|} "c880"))
  in
  tripped ~when_:"base build";
  ci "a tripped base build is not cached" 0
    (counter "service.remap.baseline_builds");
  let j = remap ~id:"after-build" "z4ml" in
  cs "remap after tripped builds" "ok" (status j);
  cs "remap after tripped builds = cold map" (cold "z4ml") (dump_of j);
  ci "the base is built once" 1 (counter "service.remap.baseline_builds");
  tripped ~when_:"warm base";
  let j = remap ~id:"after-warm" "c880" in
  cs "remap after tripped remaps" "ok" (status j);
  cs "remap after tripped remaps = cold map" (cold "c880") (dump_of j);
  let get = ledger_of srv in
  ci "ledger balances" (get "requests")
    (get "ok" + get "degraded" + get "failed" + get "rejected");
  ci "degradations ledgered" 3 (get "degraded");
  ci "failures ledgered" 2 (get "failed")

(* A build that fails keeps nothing and evicts nothing: with all four
   slots warm, an unparsable base and a base whose build trips its
   budget leave every warm baseline in place. *)
let test_failed_build_evicts_nothing () =
  with_metrics @@ fun () ->
  with_server @@ fun addr _srv ->
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Service.Client.close c) @@ fun () ->
  let remap ?(extra = "") ~format base payload =
    status
      (request c
         (Printf.sprintf
            {|{"id":"e","op":"remap","format":"%s","base":"%s","payload":"%s"%s}|}
            format base payload extra))
  in
  let warm = [ "cm150"; "mux"; "z4ml"; "cordic" ] in
  List.iter (fun b -> cs (b ^ " built") "ok" (remap ~format:"suite" b "z4ml")) warm;
  cs "unparsable base" "failed"
    (remap ~format:"blif"
       {|.model x\n.inputs a\n.outputs z\n.names a a a z\nBOGUS\n.end|}
       {|.model y\n.inputs a\n.outputs z\n.names a z\n1 1\n.end|});
  cs "tripped base build" "failed"
    (remap ~format:"suite" ~extra:{|,"max_tuples":1,"on_exhaust":"fail"|} "c880"
       "z4ml");
  List.iter (fun b -> cs (b ^ " still warm") "ok" (remap ~format:"suite" b "z4ml")) warm;
  ci "only the four warm bases were built" 4
    (counter "service.remap.baseline_builds");
  ci "each hit afterwards" 4 (counter "service.remap.baseline_hits")

(* Each baseline has its own lock: while base B (des) is being built
   for one client, a remap against warm base A (z4ml) from another
   client is answered at once, and B's build is still running when A's
   reply arrives (a finished request is in the ledger before its reply
   is written). *)
let test_slow_build_warm_base () =
  with_jobs 2 @@ fun () ->
  with_server @@ fun addr srv ->
  let conn_a = connect addr and conn_b = connect addr in
  Fun.protect
    ~finally:(fun () ->
      Service.Client.close conn_a;
      Service.Client.close conn_b)
  @@ fun () ->
  let line ~id ~base =
    Printf.sprintf
      {|{"id":"%s","op":"remap","format":"suite","base":"%s","payload":"z4ml","dump":true}|}
      id base
  in
  cs "warm-up builds base A" "ok" (status (request conn_a (line ~id:"a0" ~base:"z4ml")));
  let get k = ledger_of srv k in
  (* let the pool's worker go back to sleep, so B can be handed to it *)
  Thread.delay 0.02;
  (match Service.Client.send_line conn_b (line ~id:"b" ~base:"des") with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("send: " ^ msg));
  let deadline = Unix.gettimeofday () +. 5.0 in
  while get "inflight" = 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.0005
  done;
  ci "B admitted and running" 1 (get "inflight");
  Thread.delay 0.005;
  let done_before = get "requests" in
  let a = request conn_a (line ~id:"a1" ~base:"z4ml") in
  let done_after = get "requests" in
  cs "A status" "ok" (status a);
  ci "A answered while B's build still runs" (done_before + 1) done_after;
  cs "A dump = cold map dump"
    (Domino.Circuit.dump
       (Mapper.Algorithms.soi_domino_map (Gen.Suite.build_exn "z4ml"))
         .Mapper.Algorithms.circuit)
    (match Obs.Json.member "dump" a with
    | Some (Obs.Json.Str d) -> d
    | _ -> Alcotest.fail "no dump");
  match Service.Client.recv_line conn_b with
  | Error msg -> Alcotest.fail ("B's reply: " ^ msg)
  | Ok l -> cs "B status" "ok" (status (Obs.Json.parse_exn l))

(* A build in flight is never evicted.  With four warm bases, a slow
   build of X (des) that four hits have pushed to fifth place, and a
   fast build of Y that lands first, X's baseline is kept when it
   lands: the next remap against X hits. *)
let test_slow_build_kept () =
  with_jobs 2 @@ fun () ->
  with_metrics @@ fun () ->
  with_server @@ fun addr srv ->
  let conn = connect addr and conn_x = connect addr in
  Fun.protect
    ~finally:(fun () ->
      Service.Client.close conn;
      Service.Client.close conn_x)
  @@ fun () ->
  let line ?(extra = "") ~id base =
    Printf.sprintf
      {|{"id":"%s","op":"remap","format":"suite","base":"%s","payload":"z4ml"%s}|}
      id base extra
  in
  let remap ?extra ~id base = status (request conn (line ?extra ~id base)) in
  (* a wider PDN bound slows X's build; it is part of X's key *)
  let x = {|,"w_max":8|} in
  let warm = [ "cm150"; "mux"; "z4ml"; "cordic" ] in
  List.iter (fun b -> cs (b ^ " built") "ok" (remap ~id:b b)) warm;
  let get k = ledger_of srv k in
  (* let the pool's worker go back to sleep, so X can be handed to it *)
  Thread.delay 0.02;
  (match Service.Client.send_line conn_x (line ~extra:x ~id:"x" "des") with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("send: " ^ msg));
  let deadline = Unix.gettimeofday () +. 5.0 in
  while get "inflight" = 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.0005
  done;
  ci "X admitted and running" 1 (get "inflight");
  Thread.delay 0.005;
  List.iter (fun b -> cs (b ^ " hit") "ok" (remap ~id:(b ^ "-hit") b)) warm;
  cs "Y built" "ok" (remap ~id:"y" "frg1");
  ci "X still building when Y lands" 9 (get "requests");
  (match Service.Client.recv_line conn_x with
  | Error msg -> Alcotest.fail ("X's reply: " ^ msg)
  | Ok l -> cs "X status" "ok" (status (Obs.Json.parse_exn l)));
  ci "six bases built" 6 (counter "service.remap.baseline_builds");
  cs "X again" "ok" (remap ~extra:x ~id:"x-again" "des");
  ci "X kept: no rebuild" 6 (counter "service.remap.baseline_builds");
  ci "X hit" 5 (counter "service.remap.baseline_hits")

let test_request_isolation () =
  with_server @@ fun addr srv ->
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Service.Client.close c) @@ fun () ->
  (* An unparsable cone fails its own request only. *)
  let j =
    request c
      {|{"id":"bad","op":"map","format":"blif","payload":".model x\n.inputs a\nBOGUS"}|}
  in
  cs "unparsable payload fails" "failed" (status j);
  (* A budget-tripping cone under `fail` fails its own request only. *)
  let j =
    request c
      {|{"id":"trip","op":"map","format":"suite","payload":"c880","max_tuples":1,"on_exhaust":"fail"}|}
  in
  cs "tripped budget fails" "failed" (status j);
  (* Under `degrade` the same cone still comes back mapped. *)
  let j =
    request c
      {|{"id":"deg","op":"map","format":"suite","payload":"c880","max_tuples":1}|}
  in
  cs "tripped budget degrades" "degraded" (status j);
  (* And the connection keeps serving. *)
  cs "healthy request after the failures" "ok"
    (status (request c {|{"id":"after","op":"map","format":"suite","payload":"z4ml"}|}));
  let get = ledger_of srv in
  ci "ledger balances" (get "requests")
    (get "ok" + get "degraded" + get "failed" + get "rejected");
  ci "failures ledgered" 2 (get "failed");
  ci "degradations ledgered" 1 (get "degraded")

let test_admission_backpressure () =
  (* queue 1, one dispatcher draining one job at a time, slow jobs: a
     burst must overflow into explicit rejections, and a later retry
     must succeed.  Responses arrive in completion order, so rejections
     (immediate) overtake the admitted jobs (delayed). *)
  with_server
    ~tweak:(fun c ->
      {
        c with
        Service.Server.queue_depth = 1;
        dispatchers = 1;
        batch_max = 1;
        max_delay_ms = 500;
      })
  @@ fun addr srv ->
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Service.Client.close c) @@ fun () ->
  let line i =
    Printf.sprintf
      {|{"id":"b%d","op":"map","format":"suite","payload":"z4ml","delay_ms":250}|}
      i
  in
  for i = 1 to 5 do
    match Service.Client.send_line c (line i) with
    | Ok () -> ()
    | Error msg -> Alcotest.fail ("send: " ^ msg)
  done;
  let statuses =
    List.init 5 (fun _ ->
        match Service.Client.recv_line c with
        | Error msg -> Alcotest.fail ("recv: " ^ msg)
        | Ok l -> status (Obs.Json.parse_exn l))
  in
  let count s = List.length (List.filter (String.equal s) statuses) in
  cb "burst overflowed into rejections" true (count "rejected" >= 1);
  cb "admitted jobs still served" true (count "ok" >= 1);
  ci "every request answered" 5 (List.length statuses);
  (* the retry after backoff gets through *)
  Unix.sleepf 0.05;
  cs "retry after backoff" "ok" (status (request c (line 99)));
  let get = ledger_of srv in
  ci "ledger balances under overload" (get "requests")
    (get "ok" + get "degraded" + get "failed" + get "rejected");
  cb "rejections ledgered" true (get "rejected" >= 1)

let test_drain_with_inflight () =
  (* Stop while a slow request is in flight: the client still gets its
     response, and run returns a clean drain (checked by with_server). *)
  with_server ~tweak:(fun c -> { c with Service.Server.max_delay_ms = 500 })
  @@ fun addr srv ->
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Service.Client.close c) @@ fun () ->
  (match
     Service.Client.send_line c
       {|{"id":"slow","op":"map","format":"suite","payload":"z4ml","delay_ms":300}|}
   with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("send: " ^ msg));
  Unix.sleepf 0.05;
  Service.Server.request_stop srv;
  (match Service.Client.recv_line c with
  | Error msg -> Alcotest.fail ("no response through the drain: " ^ msg)
  | Ok l -> cs "in-flight request served through drain" "ok"
      (status (Obs.Json.parse_exn l)));
  (* new work is refused while draining *)
  match
    Service.Client.request c {|{"id":"late","op":"map","format":"suite","payload":"z4ml"}|}
  with
  | Ok j -> cb "late request rejected or refused" true (status j = "rejected")
  | Error _ -> ()  (* the listener may already be gone: equally fine *)

let test_stale_socket_recovery () =
  (* A leftover socket-path file from a crashed daemon must not wedge
     startup: the server probes it, finds nobody home, and rebinds. *)
  let path = fresh_sock_path () in
  let oc = open_out path in
  output_string oc "stale";
  close_out oc;
  let addr = Service.Protocol.Unix_sock path in
  let srv = Service.Server.create (Service.Server.default_config ~addr) in
  let run_result = ref (Error "never ran") in
  let runner = Thread.create (fun () -> run_result := Service.Server.run srv) () in
  let deadline = Int64.add (Obs.Clock.now_ns ()) 5_000_000_000L in
  while
    (not (Service.Server.listening srv))
    && Int64.compare (Obs.Clock.now_ns ()) deadline < 0
  do
    Thread.yield ()
  done;
  cb "recovered the stale socket" true (Service.Server.listening srv);
  Service.Server.request_stop srv;
  Thread.join runner;
  cb "clean drain" true (!run_result = Ok ());
  (try Unix.unlink path with Unix.Unix_error _ -> ())

(* ---------------- observability over the wire ---------------- *)

let trace_id_of j =
  match Service.Protocol.response_trace_id j with
  | Some t -> t
  | None -> Alcotest.fail "response carried no trace_id"

let test_trace_id_roundtrip () =
  (* A client-chosen trace_id is echoed verbatim on every op — including
     error responses, where correlation matters most. *)
  with_server @@ fun addr _srv ->
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Service.Client.close c) @@ fun () ->
  let j = request c {|{"id":"p","trace_id":"tp-1","op":"ping"}|} in
  cs "ping echo" "tp-1" (trace_id_of j);
  let j =
    request c
      {|{"id":"m","trace_id":"tm-2","op":"map","format":"suite","payload":"z4ml"}|}
  in
  cs "map status" "ok" (status j);
  cs "map echo" "tm-2" (trace_id_of j);
  let j = request c {|{"id":"s","trace_id":"ts-3","op":"stats"}|} in
  cs "stats echo" "ts-3" (trace_id_of j);
  let j = request c {|{"id":"e","trace_id":"te-4","op":"expose"}|} in
  cs "expose echo" "te-4" (trace_id_of j);
  let j = request c {|{"id":"x","trace_id":"tx-5","op":"teapot"}|} in
  cs "unknown op is an error" "error" (status j);
  cs "error echo" "tx-5" (trace_id_of j);
  (* Without tracing, a request without a trace_id gets none invented. *)
  let j = request c {|{"id":"q","op":"ping"}|} in
  cb "no trace_id invented while not tracing" true
    (Service.Protocol.response_trace_id j = None)

let test_traced_request_spans () =
  (* With tracing on: the server assigns s-N ids to unlabelled requests,
     and every answered request leaves a span tree in the trace —
     service.request spanning queue/map/respond children, args carrying
     the id and trace_id. *)
  Obs.Trace.clear ();
  Obs.Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_enabled false;
      Obs.Trace.clear ())
  @@ fun () ->
  let assigned = ref "" in
  with_server (fun addr _srv ->
      let c = connect addr in
      Fun.protect ~finally:(fun () -> Service.Client.close c) @@ fun () ->
      let j =
        request c {|{"id":"m1","op":"map","format":"suite","payload":"z4ml"}|}
      in
      cs "traced map ok" "ok" (status j);
      assigned := trace_id_of j;
      cb "server-assigned id is s-prefixed" true
        (String.length !assigned >= 2 && String.sub !assigned 0 2 = "s-");
      let j =
        request c
          {|{"id":"m2","trace_id":"mine","op":"map","format":"suite","payload":"z4ml"}|}
      in
      cs "client id wins over assignment" "mine" (trace_id_of j));
  let buf = Buffer.create 4096 in
  Obs.Trace.export buf;
  let doc = Obs.Json.parse_exn (Buffer.contents buf) in
  let events =
    match Option.bind (Obs.Json.member "traceEvents" doc) Obs.Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents array"
  in
  let str_member k e =
    Option.bind (Obs.Json.member k e) Obs.Json.to_string
  in
  let arg k e =
    Option.bind (Obs.Json.member "args" e) (Obs.Json.member k)
    |> Fun.flip Option.bind Obs.Json.to_string
  in
  let request_span tid =
    match
      List.find_opt
        (fun e ->
          str_member "name" e = Some "service.request"
          && arg "trace_id" e = Some tid)
        events
    with
    | Some e -> e
    | None -> Alcotest.fail ("no service.request span for " ^ tid)
  in
  let num k e = Option.bind (Obs.Json.member k e) Obs.Json.to_float in
  let window e =
    match (num "ts" e, num "dur" e) with
    | Some ts, Some d -> (ts, ts +. d)
    | _ -> Alcotest.fail "span without ts/dur"
  in
  List.iter
    (fun (tid, id) ->
      let parent = request_span tid in
      cb "request span carries the request id" true (arg "id" parent = Some id);
      cb "request span is ok" true (arg "status" parent = Some "ok");
      let plo, phi = window parent in
      (* The children nest by temporal containment inside the parent. *)
      List.iter
        (fun child ->
          match
            List.find_opt
              (fun e ->
                str_member "name" e = Some child
                && (let lo, hi = window e in
                    plo <= lo && hi <= phi +. 1.0))
              events
          with
          | Some _ -> ()
          | None ->
              Alcotest.fail
                (Printf.sprintf "no %s child inside %s's window" child tid))
        [ "service.queue"; "service.map"; "service.respond" ])
    [ (!assigned, "m1"); ("mine", "m2") ]

let test_stats_rich () =
  with_metrics @@ fun () ->
  with_server @@ fun addr srv ->
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Service.Client.close c) @@ fun () ->
  cs "warm-up map" "ok"
    (status (request c {|{"id":"w","op":"map","format":"suite","payload":"z4ml"}|}));
  let j = request c {|{"id":"s","op":"stats"}|} in
  cs "stats ok" "ok" (status j);
  (* Compat: the flat int object is still there, and balances. *)
  let svc = Option.get (Obs.Json.member "service" j) in
  let n k = Option.get (Obs.Json.to_int (Option.get (Obs.Json.member k svc))) in
  ci "flat ledger balances" (n "requests")
    (n "ok" + n "degraded" + n "failed" + n "rejected");
  ci "inflight totalled" 0 (n "inflight");
  (* New: live gauges... *)
  let gauges = Option.get (Obs.Json.member "gauges" j) in
  List.iter
    (fun k ->
      cb ("gauge " ^ k) true
        (Option.bind (Obs.Json.member k gauges) Obs.Json.to_int <> None))
    [ "service_queue_depth"; "service_inflight"; "service_connections_open" ];
  (* ...and the typed metrics array: the ok-latency histogram ships its
     bounds, per-bucket counts and sum without flattening. *)
  let metrics =
    match Option.bind (Obs.Json.member "metrics" j) Obs.Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "stats carried no metrics array"
  in
  let hist =
    match
      List.find_opt
        (fun f ->
          Option.bind (Obs.Json.member "name" f) Obs.Json.to_string
          = Some "service.latency_ns.ok")
        metrics
    with
    | Some f -> f
    | None -> Alcotest.fail "service.latency_ns.ok not in metrics"
  in
  let ints k =
    match Option.bind (Obs.Json.member k hist) Obs.Json.to_list with
    | Some l -> List.filter_map Obs.Json.to_int l
    | None -> Alcotest.fail ("histogram missing " ^ k)
  in
  let bounds = ints "bounds" and counts = ints "counts" in
  ci "counts = bounds + overflow" (List.length bounds + 1) (List.length counts);
  ci "one ok request observed" 1 (List.fold_left ( + ) 0 counts);
  cb "sum is a positive latency" true
    (match Option.bind (Obs.Json.member "sum" hist) Obs.Json.to_int with
    | Some s -> s > 0
    | None -> false);
  let get = ledger_of srv in
  ci "totals inflight idle" 0 (get "inflight")

let test_expose_op () =
  with_metrics @@ fun () ->
  with_server @@ fun addr _srv ->
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Service.Client.close c) @@ fun () ->
  cs "warm-up map" "ok"
    (status (request c {|{"id":"w","op":"map","format":"suite","payload":"z4ml"}|}));
  let j = request c {|{"id":"e","op":"expose"}|} in
  cs "expose ok" "ok" (status j);
  let body =
    match Obs.Json.member "body" j with
    | Some (Obs.Json.Str b) -> b
    | _ -> Alcotest.fail "expose carried no body"
  in
  let samples = Obs.Expose.parse body in
  cb "exposition parses to samples" true (samples <> []);
  cb "ledger counter exposed" true
    (Obs.Expose.value samples "service_requests_total" = Some 1.0);
  cb "live gauges exposed" true
    (Obs.Expose.value samples "service_inflight" <> None);
  (match Obs.Expose.histogram_of samples "service_latency_ns_ok" with
  | None -> Alcotest.fail "latency histogram not scrapeable"
  | Some (bounds, counts) ->
      ci "the one request is in the ladder" 1 (Array.fold_left ( + ) 0 counts);
      cb "scraped p99 is a sane latency" true
        (let p99 = Obs.Metrics.quantile ~bounds ~counts 0.99 in
         p99 > 0.0 && p99 <= 1e10));
  cb "body ends with the OpenMetrics terminator" true
    (List.mem "# EOF" (String.split_on_char '\n' body))

let test_flight_dump_lifecycle () =
  (* The recorder dumps to flight_file on the first failed outcome and
     again at drain — the dump then holds the reject/fail window plus
     the drain milestones. *)
  let file = Filename.temp_file "soimapd" "-flight.json" in
  Sys.remove file;
  Obs.Flight.clear ();
  Obs.Flight.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Flight.set_enabled false;
      Obs.Flight.clear ();
      try Sys.remove file with Sys_error _ -> ())
  @@ fun () ->
  with_server
    ~tweak:(fun c -> { c with Service.Server.flight_file = Some file })
    (fun addr _srv ->
      let c = connect addr in
      Fun.protect ~finally:(fun () -> Service.Client.close c) @@ fun () ->
      cs "healthy request" "ok"
        (status
           (request c {|{"id":"ok","op":"map","format":"suite","payload":"z4ml"}|}));
      cb "no dump before any failure" true (not (Sys.file_exists file));
      cs "failing request" "failed"
        (status
           (request c
              {|{"id":"bad","op":"map","format":"blif","payload":".model x\nBOGUS"}|}));
      cb "first failure dumped the recorder" true (Sys.file_exists file));
  let kinds =
    match Obs.Json.of_file file with
    | Error e -> Alcotest.fail ("flight dump rejected: " ^ e)
    | Ok doc -> (
        match Option.bind (Obs.Json.member "events" doc) Obs.Json.to_list with
        | Some l ->
            List.filter_map
              (fun e ->
                Option.bind (Obs.Json.member "kind" e) Obs.Json.to_string)
              l
        | None -> Alcotest.fail "flight dump has no events array")
  in
  cb "failure event in the window" true (List.mem "fail" kinds);
  cb "first-failure dump marker recorded" true (List.mem "dump" kinds);
  cb "drain milestones recorded (drain dump supersedes)" true
    (List.mem "drain_begin" kinds && List.mem "drain_done" kinds)

let test_daemon_storm ~jobs () =
  with_jobs jobs @@ fun () ->
  let r = Check.Chaos.daemon_storm ~seed:1337 () in
  cb "daemon survived the storm" true r.Check.Chaos.alive;
  cb "storm exercised hostile paths" true (r.Check.Chaos.frames > 0);
  ci "every expected response arrived with a known status"
    r.Check.Chaos.frames
    (r.Check.Chaos.d_ok + r.Check.Chaos.d_degraded + r.Check.Chaos.d_failed
   + r.Check.Chaos.d_rejected + r.Check.Chaos.d_errors);
  cb "mid-frame disconnects were thrown" true (r.Check.Chaos.aborted > 0);
  cb "ledger balances after the storm" true r.Check.Chaos.ledger_ok

let suite =
  [
    Alcotest.test_case "protocol addresses" `Quick test_addr;
    Alcotest.test_case "protocol parsing is total" `Quick test_request_parsing;
    Alcotest.test_case "end-to-end" `Quick test_end_to_end;
    Alcotest.test_case "warm-cache identity" `Quick test_warm_cache_identity;
    Alcotest.test_case "remap op" `Quick test_remap_op;
    Alcotest.test_case "flow and cost identity" `Quick test_flow_cost_identity;
    Alcotest.test_case "remap under a tripped budget" `Quick test_remap_budget;
    Alcotest.test_case "frames across and within writes" `Quick test_frame_chunking;
    Alcotest.test_case "max request bytes, any chunking" `Quick
      test_max_request_bytes;
    Alcotest.test_case "alternating remap baselines" `Quick
      test_alternating_baselines;
    Alcotest.test_case "a slow baseline build does not delay a warm base"
      `Quick test_slow_build_warm_base;
    Alcotest.test_case "a failed baseline build evicts nothing" `Quick
      test_failed_build_evicts_nothing;
    Alcotest.test_case "a build in flight is not evicted" `Quick
      test_slow_build_kept;
    Alcotest.test_case "request isolation" `Quick test_request_isolation;
    Alcotest.test_case "admission backpressure" `Quick test_admission_backpressure;
    Alcotest.test_case "drain with in-flight work" `Quick test_drain_with_inflight;
    Alcotest.test_case "stale socket recovery" `Quick test_stale_socket_recovery;
    Alcotest.test_case "trace-id round-trip" `Quick test_trace_id_roundtrip;
    Alcotest.test_case "traced request span tree" `Quick test_traced_request_spans;
    Alcotest.test_case "rich stats response" `Quick test_stats_rich;
    Alcotest.test_case "expose op" `Quick test_expose_op;
    Alcotest.test_case "flight dump lifecycle" `Quick test_flight_dump_lifecycle;
    Alcotest.test_case "daemon storm" `Slow (test_daemon_storm ~jobs:1);
    Alcotest.test_case "daemon storm at jobs 2" `Slow (test_daemon_storm ~jobs:2);
  ]

let _ = check
