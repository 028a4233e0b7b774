(* soimap: map a circuit (BLIF file or named generator) to SOI domino
   logic and report the transistor accounting.

   Examples:
     soimap --bench des --flow soi
     soimap --blif adder.blif --flow rs --cost area --print-gates
     soimap --bench c880 --flow all --verify *)

open Cmdliner

(* The flag that names the input decides its format.  --remap BASE
   names the pre-edit circuit through the same channel (a BLIF path
   under --blif, a suite name under --bench, ...), so the two networks
   always load the same way. *)
let channel blif bench_file pla bench =
  match (blif, bench_file, pla, bench) with
  | Some path, None, None, None -> (Service.Protocol.Blif, path)
  | None, Some path, None, None -> (Service.Protocol.Bench_fmt, path)
  | None, None, Some path, None -> (Service.Protocol.Pla, path)
  | None, None, None, Some name -> (Service.Protocol.Suite, name)
  | _ ->
      prerr_endline
        "exactly one of --blif, --bench-file, --pla or --bench is required";
      exit 2

(* Malformed input is a user error, not a crash: report it as
   file:line: message and exit 2, the same status as the other usage
   errors below. *)
let load format source =
  let text =
    match format with
    | Service.Protocol.Suite -> source
    | _ -> (
        try In_channel.with_open_text source In_channel.input_all
        with Sys_error msg ->
          prerr_endline msg;
          exit 2)
  in
  match Service.Protocol.load format text with
  | Ok net -> net
  | Error (Service.Protocol.Malformed (line, msg)) ->
      Printf.eprintf "%s:%d: %s\n" source line msg;
      exit 2
  | Error (Service.Protocol.Unknown_benchmark name) ->
      prerr_endline
        ("unknown benchmark: " ^ name ^ " (known: "
        ^ String.concat ", "
            (List.map
               (fun e -> e.Gen.Suite.name)
               (Gen.Suite.all @ Gen.Suite.extras))
        ^ ")");
      exit 2

(* Exit codes: 0 success (including Degraded under --on-exhaust degrade,
   and a clean --serve drain on SIGTERM/SIGINT), 1 verification failure,
   2 usage error, 3 budget exhausted under --on-exhaust fail, 4
   --certify proved a DP suboptimality, 5 --serve could not start
   (address in use by a live daemon, permission denied), 130
   interrupted. *)
let exit_verify_failed = 1
let exit_exhausted = 3
let exit_suboptimal = 4
let exit_serve_failed = 5

(* ---------------- observability output ---------------- *)

(* The stable/scheduling split mirrors the registry's [stable] flag:
   stable totals are work-derived and comparable across -j, the
   scheduling section (pool counters, latency buckets) is not. *)
let stats_sections () =
  let stable = Obs.Metrics.snapshot ~stable_only:true () in
  let all = Obs.Metrics.snapshot () in
  let sched =
    List.filter (fun (n, _) -> not (List.mem_assoc n stable)) all
  in
  (stable, sched)

let print_stats_text () =
  let stable, sched = stats_sections () in
  let section title rows render =
    if rows <> [] then begin
      print_endline title;
      List.iter render rows
    end
  in
  section "metrics:" stable (fun (n, v) -> Printf.printf "  %-28s %d\n" n v);
  section "scheduling:" sched (fun (n, v) -> Printf.printf "  %-28s %d\n" n v);
  section "gc:" (Obs.Gcstats.pairs ()) (fun (n, v) ->
      Printf.printf "  %-28s %.0f\n" n v);
  let spans = Obs.Trace.summary_text () in
  if spans <> "" then begin
    print_endline "spans:";
    String.split_on_char '\n' spans
    |> List.iter (fun l -> if l <> "" then Printf.printf "  %s\n" l)
  end

let print_stats_json () =
  let stable, sched = stats_sections () in
  let obj rows render =
    "{"
    ^ String.concat ", "
        (List.map
           (fun (n, v) ->
             Printf.sprintf "\"%s\": %s" (Obs.Json.escape n) (render v))
           rows)
    ^ "}"
  in
  let spans =
    "["
    ^ String.concat ", "
        (List.map
           (fun (name, count, total_ns, max_ns) ->
             Printf.sprintf
               "{\"name\": \"%s\", \"count\": %d, \"total_ns\": %Ld, \
                \"max_ns\": %Ld}"
               (Obs.Json.escape name) count total_ns max_ns)
           (Obs.Trace.summary ()))
    ^ "]"
  in
  Printf.printf
    "{\"metrics\": %s, \"scheduling\": %s, \"gc\": %s, \"spans\": %s}\n"
    (obj stable string_of_int)
    (obj sched string_of_int)
    (obj (Obs.Gcstats.pairs ()) (Printf.sprintf "%.0f"))
    spans

let report name flow_name (r : Mapper.Algorithms.result) degradations verify
    exact max_bdd_nodes print_gates timing spice verilog vcd net =
  let c = r.Mapper.Algorithms.counts in
  Printf.printf
    "%s [%s]: Tlogic=%d Tdisch=%d Ttotal=%d Tclock=%d gates=%d levels=%d \
     pi_inverters=%d\n"
    name flow_name c.Domino.Circuit.t_logic c.Domino.Circuit.t_disch
    c.Domino.Circuit.t_total c.Domino.Circuit.t_clock c.Domino.Circuit.gate_count
    c.Domino.Circuit.levels c.Domino.Circuit.pi_inverters;
  (match r.Mapper.Algorithms.rewrite with
  | None -> ()
  | Some i ->
      Printf.printf "  rewrite: variants=%d tried=%d chosen=%s cost=%d->%d\n"
        i.Mapper.Restructure.generated i.Mapper.Restructure.tried
        (match i.Mapper.Restructure.chosen_rule with
        | None -> "original"
        | Some rule ->
            Printf.sprintf "%s@n%d" rule i.Mapper.Restructure.chosen_site)
        i.Mapper.Restructure.original_cost i.Mapper.Restructure.cost);
  List.iter
    (fun d ->
      Printf.printf "  DEGRADED: %s\n" (Resilience.Outcome.describe_degradation d))
    degradations;
  if print_gates then
    Format.printf "%a@." Domino.Circuit.pp r.Mapper.Algorithms.circuit;
  if timing then begin
    let t = Domino.Timing.analyze r.Mapper.Algorithms.circuit in
    Format.printf "  timing: %a@." Domino.Timing.pp_report t
  end;
  (match spice with
  | Some path ->
      Export.Spice.to_file r.Mapper.Algorithms.circuit path;
      Printf.printf "  wrote SPICE netlist to %s\n" path
  | None -> ());
  (match verilog with
  | Some path ->
      Export.Verilog.to_file r.Mapper.Algorithms.circuit path;
      Printf.printf "  wrote Verilog netlist to %s\n" path
  | None -> ());
  (match vcd with
  | Some path ->
      let circuit = r.Mapper.Algorithms.circuit in
      let n = Array.length circuit.Domino.Circuit.input_names in
      let rng = Logic.Rng.create 0xD0D0 in
      let stimulus = List.init 64 (fun _ -> Array.init n (fun _ -> Logic.Rng.bool rng)) in
      let res = Sim.Vcd.dump_to_file circuit stimulus path in
      Printf.printf "  wrote VCD (64 cycles, %d PBE events) to %s\n"
        res.Sim.Domino_sim.total_events path
  | None -> ());
  (* Verdicts are returned, not acted on: with --flow all every flow
     must be mapped and reported before the process decides its exit
     status, so a failing first flow cannot hide the others. *)
  let ok = ref true in
  if verify then begin
    let equiv, free, hyst =
      Obs.Trace.with_span ~cat:"cli" "cli.verify" (fun () ->
          ( Domino.Circuit.equivalent_to r.Mapper.Algorithms.circuit
              r.Mapper.Algorithms.unate,
            Sim.Domino_sim.pbe_free r.Mapper.Algorithms.circuit,
            Domino.Hysteresis.of_circuit r.Mapper.Algorithms.circuit ))
    in
    Printf.printf "  functional-equivalence=%b pbe-free=%b hysteresis-exposed=%d/%d\n"
      equiv free hyst.Domino.Hysteresis.exposed hyst.Domino.Hysteresis.total;
    if not (equiv && free) then ok := false
  end;
  if exact then begin
    (* Under --max-bdd-nodes a blown cone degrades to seeded sampling
       instead of an unconditional 'unknown'; the rendering says which. *)
    let checked =
      Obs.Trace.with_span ~cat:"cli" "cli.exact" (fun () ->
          Domino.Circuit.equivalent_checked ?limit:max_bdd_nodes
            r.Mapper.Algorithms.circuit net)
    in
    Format.printf "  formal-equivalence: %a@." Logic.Equiv.pp_checked checked;
    match checked.Logic.Equiv.verdict with
    | Logic.Equiv.Equivalent -> ()
    | _ -> ok := false
  end;
  !ok

(* --cache plumbing.  All cache chatter goes to stderr so that a warm
   run's stdout is byte-identical to a cold run's (the CI determinism
   leg diffs them).  An unusable cache file is a one-line warning and a
   cold start — never a failure exit. *)
let open_cache cache =
  match cache with
  | None -> (None, fun () -> ())
  | Some file ->
      let tbl = Mapper.Memo.create () in
      let warn_reasons ds =
        List.iter
          (fun d ->
            Printf.eprintf "soimap: cache %s: %s; starting cold\n" file
              (Resilience.Budget.reason_to_string d.Resilience.Outcome.reason))
          ds
      in
      (match Mapper.Memo.load tbl file with
      | Resilience.Outcome.Ok 0 -> ()
      | Resilience.Outcome.Ok n ->
          Printf.eprintf "soimap: cache %s: loaded %d entries\n" file n
      | Resilience.Outcome.Degraded (_, ds) -> warn_reasons ds
      | Resilience.Outcome.Failed reason ->
          Printf.eprintf "soimap: cache %s: %s; starting cold\n" file
            (Resilience.Budget.reason_to_string reason));
      let save () =
        match Mapper.Memo.save tbl file with
        | Resilience.Outcome.Ok bytes ->
            Printf.eprintf "soimap: cache %s: saved %d entries (%d bytes)\n"
              file
              (Mapper.Memo.entry_count tbl)
              bytes
        | Resilience.Outcome.Degraded (_, ds) ->
            List.iter
              (fun d ->
                Printf.eprintf "soimap: cache %s: %s; not saved\n" file
                  (Resilience.Budget.reason_to_string
                     d.Resilience.Outcome.reason))
              ds
        | Resilience.Outcome.Failed reason ->
            Printf.eprintf "soimap: cache %s: %s; not saved\n" file
              (Resilience.Budget.reason_to_string reason)
      in
      (Some tbl, save)

(* ---------------- daemon mode ---------------- *)

(* `soimap --serve unix:/tmp/soimapd.sock`: the one-shot flags keep
   their meaning but become server policy — --timeout is the default
   per-request budget, --max-timeout the clamp on client wishes,
   --max-tuples/--max-bdd-nodes the policy caps, --cache the shared warm
   table persisted by the janitor and at drain.  SIGTERM/SIGINT request
   a graceful drain and the process exits 0 once drained. *)
let serve_main addr_str queue_depth max_conns dispatchers io_timeout
    drain_timeout max_timeout timeout max_tuples max_bdd_nodes cache
    stats_addr_str flight trace_file finish_stats =
  let parse_addr s =
    match Service.Protocol.addr_of_string s with
    | Ok a -> a
    | Error msg ->
        prerr_endline ("soimap: " ^ msg);
        exit 2
  in
  let addr = parse_addr addr_str in
  let stats_addr = Option.map parse_addr stats_addr_str in
  List.iter
    (fun (flag, v) ->
      if v < 1 then begin
        Printf.eprintf "soimap: %s must be at least 1\n" flag;
        exit 2
      end)
    [
      ("--queue-depth", queue_depth);
      ("--max-conns", max_conns);
      ("--dispatchers", dispatchers);
    ];
  if io_timeout <= 0.0 || drain_timeout < 0.0 || max_timeout <= 0.0 then begin
    prerr_endline "soimap: server timeouts must be positive";
    exit 2
  end;
  let base = Service.Server.default_config ~addr in
  let cfg =
    {
      base with
      Service.Server.queue_depth;
      max_connections = max_conns;
      dispatchers;
      io_timeout;
      drain_timeout;
      max_timeout;
      default_timeout =
        Float.min (Option.value timeout ~default:base.Service.Server.default_timeout)
          max_timeout;
      max_tuples_cap = max_tuples;
      max_bdd_nodes_cap = max_bdd_nodes;
      cache_file = cache;
      stats_addr;
      flight_file = flight;
    }
  in
  (* A daemon always collects metrics: the stats op, the OpenMetrics
     listener and the drained summary all read the registry, and the
     sharded cells cost nothing measurable against a mapping. *)
  Obs.Metrics.set_enabled true;
  if flight <> None then Obs.Flight.set_enabled true;
  (* Tracing a daemon streams: the buffers are bounded and drained to
     the file every maintenance tick, so a week-long run traces in
     constant memory, and a crash still leaves a loadable file. *)
  let streaming =
    match trace_file with
    | None -> false
    | Some path -> (
        Obs.Trace.set_capacity 65_536;
        match Obs.Trace.stream_open path with
        | Ok () -> true
        | Error msg ->
            Printf.eprintf "soimapd: trace %s: %s\n%!" path msg;
            exit 2)
  in
  let memo, _ = open_cache cache in
  let srv = Service.Server.create ?memo cfg in
  let stop _ = Service.Server.request_stop srv in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  (* SIGQUIT: dump the flight recorder without dying — the classic
     "what is it doing right now?" signal. *)
  (try
     Sys.set_signal Sys.sigquit
       (Sys.Signal_handle (fun _ -> Service.Server.request_flight_dump srv))
   with Invalid_argument _ -> ());
  Printf.eprintf "soimapd: listening on %s (queue %d, %d dispatchers)\n%!"
    (Service.Protocol.addr_to_string addr)
    queue_depth dispatchers;
  (match stats_addr with
  | Some a ->
      Printf.eprintf "soimapd: OpenMetrics on %s\n%!"
        (Service.Protocol.addr_to_string a)
  | None -> ());
  let finish () =
    if streaming then begin
      Obs.Trace.stream_close ();
      match trace_file with
      | Some path ->
          Printf.eprintf "soimapd: closed trace stream %s (%d events dropped)\n%!"
            path (Obs.Trace.dropped_events ())
      | None -> ()
    end;
    finish_stats ()
  in
  match Service.Server.run srv with
  | Error msg ->
      Printf.eprintf "soimapd: %s\n" msg;
      finish ();
      exit exit_serve_failed
  | Ok () ->
      let t = Service.Server.totals srv in
      let get k = try List.assoc k t with Not_found -> 0 in
      Printf.eprintf
        "soimapd: drained: requests=%d ok=%d degraded=%d failed=%d \
         rejected=%d errors=%d\n%!"
        (get "requests") (get "ok") (get "degraded") (get "failed")
        (get "rejected") (get "errors");
      finish ();
      exit 0

let main jobs blif bench_file pla bench flow cost w_max h_max rewrite remap_base
    verify
    exact certify certify_max_cone certify_expansions prune exhaustive_limit
    print_gates timing multi spice verilog vcd timeout max_tuples max_bdd_nodes
    on_exhaust trace stats cache serve queue_depth max_conns dispatchers
    io_timeout drain_timeout max_timeout stats_addr flight =
  let rewrite =
    match rewrite with
    | None -> 0
    | Some n when n >= 1 -> n
    | Some _ ->
        prerr_endline "--rewrite needs a positive variant count";
        exit 2
  in
  (* The rewrite portfolio has no warm path (every variant reshapes the
     network), and --multi sweeps widths with its own driver; neither
     composes with an incremental remap. *)
  if remap_base <> None && rewrite > 0 then begin
    prerr_endline
      "--remap does not support --rewrite (no warm path through the portfolio)";
    exit 2
  end;
  if remap_base <> None && multi then begin
    prerr_endline "--remap does not support --multi";
    exit 2
  end;
  if jobs < 0 then begin
    prerr_endline "--jobs must be non-negative (0 = number of cores)";
    exit 2
  end;
  (* Fail fast on nonsensical budget limits (--timeout 0, negative
     --max-tuples): a budget that can never admit any work is a usage
     error, not a mapping attempt that instantly degrades.  The server
     applies the same rules to request fields. *)
  (match Resilience.Budget.validate ?timeout ?max_tuples ?max_bdd_nodes () with
  | Ok () -> ()
  | Error msg ->
      prerr_endline ("soimap: " ^ msg);
      exit 2);
  let trace =
    match trace with Some _ -> trace | None -> Sys.getenv_opt "SOIMAP_TRACE"
  in
  let stats_fmt =
    match stats with
    | None -> None
    | Some "text" -> Some `Text
    | Some "json" -> Some `Json
    | Some s ->
        prerr_endline ("unknown --stats format: " ^ s ^ " (text|json)");
        exit 2
  in
  if trace <> None then Obs.Trace.set_enabled true;
  if stats_fmt <> None then begin
    (* --stats wants the span summary section too, so both switches go
       on; events are only buffered, nothing is written without --trace. *)
    Obs.Metrics.set_enabled true;
    Obs.Trace.set_enabled true
  end;
  (* Flushed before every post-work exit path so a verification failure
     still produces its trace and stats. *)
  let finish_stats () =
    match stats_fmt with
    | Some `Text -> print_stats_text ()
    | Some `Json -> print_stats_json ()
    | None -> ()
  in
  let finish_obs () =
    (match trace with
    | Some path ->
        Obs.Trace.write_file path;
        Printf.eprintf "soimap: wrote trace (%d events) to %s\n"
          (Obs.Trace.event_count ()) path
    | None -> ());
    finish_stats ()
  in
  (* Daemon mode branches off here: it installs its own signal handlers
     (drain, not die), never loads a one-shot input, and streams its
     trace instead of buffering it. *)
  (match serve with
  | Some addr_str ->
      Parallel.Pool.set_jobs jobs;
      serve_main addr_str queue_depth max_conns dispatchers io_timeout
        drain_timeout max_timeout timeout max_tuples max_bdd_nodes cache
        stats_addr flight trace finish_stats
  | None -> ());
  if stats_addr <> None || flight <> None then begin
    prerr_endline "soimap: --stats-addr/--flight need --serve";
    exit 2
  end;
  (* Flush whatever has been reported so far before dying on ^C: with
     --flow all the completed flows' lines are already on stdout. *)
  Sys.set_signal Sys.sigint
    (Sys.Signal_handle
       (fun _ ->
         flush stdout;
         prerr_endline "soimap: interrupted";
         exit 130));
  Parallel.Pool.set_jobs jobs;
  let memo, save_cache = open_cache cache in
  let format, source = channel blif bench_file pla bench in
  let net = load format source in
  let base_net = Option.map (load format) remap_base in
  if multi then begin
    print_string
      (Mapper.Multi.render (Mapper.Multi.sweep ?memo ~w_max ~h_max ~rewrite net));
    save_cache ();
    finish_obs ();
    exit 0
  end;
  let name = Logic.Network.name net in
  let cost =
    Option.map
      (fun s ->
        match Service.Protocol.cost_of_string s with
        | Ok c -> c
        | Error msg ->
            prerr_endline msg;
            exit 2)
      cost
  in
  let on_exhaust =
    match Service.Protocol.on_exhaust_of_string on_exhaust with
    | Ok policy -> policy
    | Error _ ->
        prerr_endline
          ("unknown --on-exhaust policy: " ^ on_exhaust ^ " (fail|degrade)");
        exit 2
  in
  let budget () =
    (* One budget per flow: the tuple counter and deadline are per
       mapping run, not shared across --flow all. *)
    Resilience.Budget.make ?timeout ?max_tuples ?max_bdd_nodes ()
  in
  let flows =
    match flow with
    | "all" ->
        [ Mapper.Algorithms.Domino_map; Mapper.Algorithms.Rs_map;
          Mapper.Algorithms.Soi_domino_map ]
    | s -> (
        match Service.Protocol.flow_of_string s with
        | Ok f -> [ f ]
        | Error _ ->
            prerr_endline ("unknown flow: " ^ s ^ " (bulk|rs|soi|all)");
            exit 2)
  in
  (* Every flow maps the same prepared network (and remaps against the
     same prepared base). *)
  let u = Mapper.Algorithms.prepare net in
  let base_u = Option.map Mapper.Algorithms.prepare base_net in
  let all_ok = ref true in
  let exhausted = ref false in
  let suboptimal = ref false in
  List.iter
    (fun f ->
      match
        Obs.Trace.with_span ~cat:"cli" "cli.flow"
          ~args:(fun () -> [ ("flow", Mapper.Algorithms.flow_name f) ])
          (fun () ->
            match base_u with
            | None ->
                Mapper.Algorithms.map_outcome ~budget:(budget ()) ?memo
                  ~on_exhaust ?cost ~w_max ~h_max ~rewrite f u
            | Some u0 ->
                Mapper.Algorithms.remap ~budget:(budget ()) ~on_exhaust
                  (Mapper.Algorithms.base ?memo ?cost ~w_max ~h_max f u0)
                  u)
      with
      | Resilience.Outcome.Failed reason ->
          (* --on-exhaust fail: report the flow and keep going, as with
             verification failures, so --flow all shows every flow. *)
          Printf.printf "%s [%s]: EXHAUSTED %s\n" name
            (Mapper.Algorithms.flow_name f)
            (Resilience.Budget.reason_to_string reason);
          exhausted := true
      | (Resilience.Outcome.Ok r | Resilience.Outcome.Degraded (r, _)) as o ->
          (* The remap's dirty/clean accounting joins the cache chatter
             on stderr, so stdout stays byte-identical to a plain map of
             the main input. *)
          Option.iter
            (fun (i : Mapper.Engine.remap_info) ->
              Printf.eprintf
                "soimap: remap [%s]: %d dirty / %d clean cones, %d warm \
                 hits, %d misses\n\
                 %!"
                (Mapper.Algorithms.flow_name f)
                i.Mapper.Engine.dirty_cones i.Mapper.Engine.clean_cones
                i.Mapper.Engine.memo_hits i.Mapper.Engine.memo_misses)
            r.Mapper.Algorithms.remap;
          if
            not
              (report name (Mapper.Algorithms.flow_name f) r
                 (Resilience.Outcome.degradations o) verify exact max_bdd_nodes
                 print_gates timing spice verilog vcd net)
          then all_ok := false;
          if certify then begin
            (* Per-output optimality certificates: rerun the DP (a pure
               memo hit when --cache is live) and solve every cone that
               fits the budget to proven optimality.  A proven gap flips
               the exit status to 4; bounded/skipped cones are counted,
               never silent. *)
            let options = Mapper.Algorithms.options_of ?cost ~w_max ~h_max f in
            let memo_salt =
              match r.Mapper.Algorithms.rewrite with
              | Some i -> i.Mapper.Restructure.salt
              | None -> 0
            in
            let s =
              Obs.Trace.with_span ~cat:"cli" "cli.certify" (fun () ->
                  Opt.Certify.certify ~max_size:certify_max_cone
                    ~max_expansions:certify_expansions ?memo ~memo_salt
                    ~options r.Mapper.Algorithms.mapped)
            in
            print_string (Opt.Certify.render s);
            if s.Opt.Certify.gaps > 0 then suboptimal := true
          end;
          if prune then begin
            let p =
              Obs.Trace.with_span ~cat:"cli" "cli.prune" (fun () ->
                  Mapper.Prune.run ~exhaustive_limit
                    r.Mapper.Algorithms.circuit)
            in
            let pc = Domino.Circuit.counts p.Mapper.Prune.circuit in
            Printf.printf
              "  prune: removed=%d kept=%d exhaustive=%b Ttotal=%d\n"
              p.Mapper.Prune.removed p.Mapper.Prune.kept
              p.Mapper.Prune.validated_exhaustively
              pc.Domino.Circuit.t_total
          end)
    flows;
  save_cache ();
  finish_obs ();
  if !exhausted then exit exit_exhausted;
  if not !all_ok then exit exit_verify_failed;
  if !suboptimal then exit exit_suboptimal

(* ---------------- scrape mode ---------------- *)

(* `soimap scrape ADDR`: one OpenMetrics scrape from a daemon's
   --stats-addr listener, pretty-printed with quantiles interpolated
   from the histogram buckets — curl | sort for humans. *)
let scrape_main addr_str =
  let addr =
    match Service.Protocol.addr_of_string addr_str with
    | Ok a -> a
    | Error msg ->
        prerr_endline ("soimap: " ^ msg);
        exit 2
  in
  (* The one-shot responder may answer and close the moment it has read
     the request line; a racing write must surface as EPIPE, not kill
     the scrape. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fetch () =
    match Service.Client.connect ~timeout:5.0 addr with
    | Error msg -> Error msg
    | Ok c ->
        let result =
          (* The whole HTTP/1.0 request in one write (send_line appends
             the final newline): the responder answers after its first
             read, so a second write could race its close. *)
          match Service.Client.send_line c "GET /metrics HTTP/1.0\r\n\r" with
          | Error _ as e -> e
          | Ok () ->
              (* Read lines to EOF; connection-closed is the HTTP/1.0
                 end-of-body marker, not an error. *)
              let rec go acc =
                match Service.Client.recv_line c with
                | Ok l -> go (l :: acc)
                | Error _ -> List.rev acc
              in
              let lines = go [] in
              (* The body starts after the first blank line; drop the
                 status line and headers (a colon is a legal OpenMetrics
                 name character, so [Content-Length: 9526] would
                 otherwise parse as a sample). *)
              let rec body = function
                | [] -> lines (* no header separator: take it all *)
                | l :: rest when String.trim l = "" -> rest
                | _ :: rest -> body rest
              in
              Ok (String.concat "\n" (body lines))
        in
        Service.Client.close c;
        result
  in
  match fetch () with
  | Error msg ->
      prerr_endline ("soimap: scrape: " ^ msg);
      exit 1
  | Ok text ->
      (* Strip the HTTP status line and headers: samples start after the
         first blank line; Expose.parse skips anything malformed. *)
      let samples = Obs.Expose.parse text in
      if samples = [] then begin
        prerr_endline "soimap: scrape: no samples in response";
        exit 1
      end;
      let hist_names =
        List.filter_map
          (fun s ->
            if s.Obs.Expose.s_le <> None then
              let n = s.Obs.Expose.s_name in
              let suffix = "_bucket" in
              if String.length n > String.length suffix then
                Some (String.sub n 0 (String.length n - String.length suffix))
              else None
            else None)
          samples
        |> List.sort_uniq compare
      in
      let hist_aux = List.concat_map (fun n -> [ n ^ "_sum"; n ^ "_count" ]) hist_names in
      List.iter
        (fun s ->
          if
            s.Obs.Expose.s_le = None
            && not (List.mem s.Obs.Expose.s_name hist_aux)
          then
            Printf.printf "%-44s %.0f\n" s.Obs.Expose.s_name s.Obs.Expose.s_value)
        samples;
      let fmt_value name v =
        (* Nanosecond-valued families read better in milliseconds. *)
        let has_ns =
          let pat = "_ns_" in
          let pl = String.length pat in
          let nl = String.length name in
          let rec scan i =
            i + pl <= nl && (String.sub name i pl = pat || scan (i + 1))
          in
          scan 0
        in
        if has_ns then Printf.sprintf "%.3fms" (v /. 1e6)
        else Printf.sprintf "%.0f" v
      in
      List.iter
        (fun n ->
          match Obs.Expose.histogram_of samples n with
          | None -> ()
          | Some (bounds, counts) ->
              let total = Array.fold_left ( + ) 0 counts in
              let q p = Obs.Metrics.quantile ~bounds ~counts p in
              Printf.printf "%-44s count=%d p50=%s p95=%s p99=%s\n" n total
                (fmt_value n (q 0.5))
                (fmt_value n (q 0.95))
                (fmt_value n (q 0.99)))
        hist_names

let cmd =
  let jobs =
    Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Worker-domain pool size for the parallel pipeline stages \
                 (portfolio sweep, per-cone formal equivalence).  1 is fully \
                 serial; 0 uses the number of cores.")
  in
  let blif =
    Arg.(value & opt (some string) None & info [ "blif" ] ~docv:"FILE"
           ~doc:"Read the input circuit from a BLIF file.")
  in
  let bench_file =
    Arg.(value & opt (some string) None & info [ "bench-file" ] ~docv:"FILE"
           ~doc:"Read the input circuit from an ISCAS .bench file.")
  in
  let pla =
    Arg.(value & opt (some string) None & info [ "pla" ] ~docv:"FILE"
           ~doc:"Read the input circuit from an espresso .pla file.")
  in
  let bench =
    Arg.(value & opt (some string) None & info [ "bench" ] ~docv:"NAME"
           ~doc:"Use a named benchmark from the built-in suite.")
  in
  let flow =
    Arg.(value & opt string "soi" & info [ "flow" ] ~docv:"FLOW"
           ~doc:"Mapping flow: bulk, rs, soi, or all.")
  in
  let cost =
    Arg.(value & opt (some string) None & info [ "cost" ] ~docv:"COST"
           ~absent:"area"
           ~doc:"Cost model: area, depth, depth-bulk, or an integer k for \
                 clock-weighted mapping.")
  in
  let w_max =
    Arg.(value & opt int Mapper.Engine.default_options.Mapper.Engine.w_max
         & info [ "w-max" ] ~docv:"W" ~doc:"Maximum PDN width.")
  in
  let h_max =
    Arg.(value & opt int Mapper.Engine.default_options.Mapper.Engine.h_max
         & info [ "h-max" ] ~docv:"H" ~doc:"Maximum PDN height.")
  in
  let rewrite =
    Arg.(value & opt ~vopt:(Some 8) (some int) None
         & info [ "rewrite" ] ~docv:"N"
             ~doc:"Enable the choice-aware rewriting front end: map the \
                   original network and up to $(docv) algebraic \
                   restructurings (re-association, distributive factoring, \
                   absorption) and keep the cheapest circuit under the \
                   active cost model; ties keep the original.  $(docv) \
                   defaults to 8 when the flag is given bare.  All \
                   portfolio runs share the memo table under a salt \
                   derived from the rule set, so --cache files stay \
                   correct across --rewrite and plain runs.")
  in
  let remap_base =
    Arg.(value & opt (some string) None
         & info [ "remap" ] ~docv:"BASE"
             ~doc:"Incremental remap: warm-map $(docv) — a second input \
                   named through the same channel as the main input (a \
                   BLIF path under $(b,--blif), a benchmark name under \
                   $(b,--bench), ...) — then remap the main input against \
                   the warm memo, re-pricing only the cones the edit \
                   dirtied.  Memo transparency keeps stdout byte-identical \
                   to a plain map of the main input; the dirty/clean \
                   accounting goes to stderr.  Incompatible with \
                   $(b,--rewrite) and $(b,--multi); a tripped budget \
                   follows $(b,--on-exhaust) as a plain map does.")
  in
  let verify =
    Arg.(value & flag & info [ "verify" ]
           ~doc:"Check functional equivalence and PBE freedom (switch-level \
                 simulation with the floating-body model).")
  in
  let exact =
    Arg.(value & flag & info [ "exact" ]
           ~doc:"Prove functional equivalence with BDDs (falls back to a \
                 clear 'unknown' on very large circuits).")
  in
  let certify =
    Arg.(value & flag & info [ "certify" ]
           ~doc:"Certify the DP's optimality claim cone by cone: solve each \
                 mapped cone to proven optimality with a branch-and-bound \
                 search over the DP's own tuple space and print a \
                 per-cone certificate (PROVED / GAP / BOUNDED / SKIPPED).  \
                 A proven gap exits 4; a blown search budget degrades to \
                 an honest bound, never a wrong verdict.")
  in
  let certify_max_cone =
    Arg.(value & opt int Opt.Certify.default_max_size
         & info [ "certify-max-cone" ] ~docv:"N"
             ~doc:"Cone size cap for --certify: cones with more than \
                   $(docv) interior nodes are reported SKIPPED.")
  in
  let certify_expansions =
    Arg.(value & opt int Opt.Certify.default_max_expansions
         & info [ "certify-expansions" ] ~docv:"N"
             ~doc:"Per-cone search budget for --certify, in deterministic \
                   tuple expansions (not wall-clock, so certificates are \
                   machine-independent).")
  in
  let prune =
    Arg.(value & flag & info [ "prune" ]
           ~doc:"Run the sequence-aware discharge pruning pass after \
                 mapping and report how many discharge transistors it \
                 removed (see docs; the paper's future-work item).")
  in
  let exhaustive_limit =
    Arg.(value & opt int 8 & info [ "exhaustive-limit" ] ~docv:"N"
           ~doc:"Input-count bound for exhaustive two-pattern validation \
                 during --prune; circuits with more than $(docv) inputs \
                 fall back to seeded random stimuli.")
  in
  let print_gates =
    Arg.(value & flag & info [ "print-gates" ] ~doc:"Print every mapped gate.")
  in
  let timing =
    Arg.(value & flag & info [ "timing" ]
           ~doc:"Report the first-order critical-path analysis.")
  in
  let multi =
    Arg.(value & flag & info [ "multi" ]
           ~doc:"Sweep the objective portfolio (area, clock-weighted, depth) \
                 and print the Pareto-efficient points.")
  in
  let spice =
    Arg.(value & opt (some string) None & info [ "spice" ] ~docv:"FILE"
           ~doc:"Write the mapped transistor netlist as SPICE.")
  in
  let verilog =
    Arg.(value & opt (some string) None & info [ "verilog" ] ~docv:"FILE"
           ~doc:"Write the mapped netlist as switch-level Verilog.")
  in
  let vcd =
    Arg.(value & opt (some string) None & info [ "vcd" ] ~docv:"FILE"
           ~doc:"Simulate 64 random cycles and write a VCD waveform.")
  in
  let timeout =
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SEC"
           ~doc:"Wall-clock budget per mapping run.  On exhaustion the \
                 --on-exhaust policy decides between a greedy fallback \
                 mapping and a hard stop.")
  in
  let max_tuples =
    Arg.(value & opt (some int) None & info [ "max-tuples" ] ~docv:"N"
           ~doc:"Budget on match tuples formed by the DP sweep (the \
                 mapper's dominant memory cost).")
  in
  let max_bdd_nodes =
    Arg.(value & opt (some int) None & info [ "max-bdd-nodes" ] ~docv:"N"
           ~doc:"Node cap per BDD manager during --exact equivalence; a \
                 blown cone degrades to seeded random sampling instead of \
                 answering 'unknown'.")
  in
  let on_exhaust =
    Arg.(value & opt string "degrade" & info [ "on-exhaust" ] ~docv:"POLICY"
           ~doc:"What to do when a mapping budget trips: 'degrade' \
                 (default) reruns the sweep with the greedy single-tuple \
                 mapper and flags the result DEGRADED (exit 0 if it \
                 verifies); 'fail' stops that flow and exits 3.")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record hierarchical spans of the whole pipeline and write \
                 them as Chrome trace-event JSON (open in Perfetto or \
                 chrome://tracing).  Defaults to the SOIMAP_TRACE \
                 environment variable when set.")
  in
  let stats =
    Arg.(value & opt ~vopt:(Some "text") (some string) None
         & info [ "stats" ] ~docv:"FMT"
             ~doc:"Print the metrics registry, pool scheduling counters, GC \
                   statistics and span summary after the run; $(docv) is \
                   'text' (default) or 'json'.")
  in
  let cache =
    Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"FILE"
           ~doc:"Persistent structural memo cache for the DP mapper: load \
                 $(docv) before mapping (a missing file is a cold start) and \
                 save it back, atomically, afterwards.  Corrupt, truncated \
                 or wrong-version files print one warning and start cold.  \
                 Caching is exactly transparent — the mapped circuits are \
                 identical with or without it (see docs/mapping-cache.md).")
  in
  let serve =
    Arg.(value & opt (some string) None & info [ "serve" ] ~docv:"ADDR"
           ~doc:"Run as a mapping daemon on $(docv) (unix:PATH or \
                 tcp:HOST:PORT) instead of mapping one input.  Requests \
                 are newline-delimited JSON (see docs/service.md); \
                 --timeout/--max-tuples/--max-bdd-nodes become the \
                 per-request budget policy and --cache the shared warm \
                 table.  SIGTERM/SIGINT drain gracefully and exit 0.")
  in
  let queue_depth =
    Arg.(value & opt int 64 & info [ "queue-depth" ] ~docv:"N"
           ~doc:"(--serve) Admission-queue bound; requests beyond it are \
                 rejected immediately with an overloaded response.")
  in
  let max_conns =
    Arg.(value & opt int 64 & info [ "max-conns" ] ~docv:"N"
           ~doc:"(--serve) Maximum concurrent client connections.")
  in
  let dispatchers =
    Arg.(value & opt int 2 & info [ "dispatchers" ] ~docv:"N"
           ~doc:"(--serve) Threads batching admitted requests onto the \
                 shared worker pool.")
  in
  let io_timeout =
    Arg.(value & opt float 10.0 & info [ "io-timeout" ] ~docv:"SEC"
           ~doc:"(--serve) Per-connection socket read/write timeout.")
  in
  let drain_timeout =
    Arg.(value & opt float 10.0 & info [ "drain-timeout" ] ~docv:"SEC"
           ~doc:"(--serve) Grace period for queued work after \
                 SIGTERM/SIGINT; later queued jobs are failed with a \
                 'draining' response, never dropped silently.")
  in
  let max_timeout =
    Arg.(value & opt float 60.0 & info [ "max-timeout" ] ~docv:"SEC"
           ~doc:"(--serve) Clamp on client-requested per-request budget \
                 timeouts (and on the --timeout default).")
  in
  let stats_addr =
    Arg.(value & opt (some string) None & info [ "stats-addr" ] ~docv:"ADDR"
           ~doc:"(--serve) Serve the metrics registry as OpenMetrics text \
                 over HTTP/1.0 on a second listener at $(docv) (unix:PATH \
                 or tcp:HOST:PORT) — scrape it with Prometheus, curl, or \
                 $(b,soimap scrape).  Kept off the service socket so a \
                 scraping outage and a mapping outage cannot cause each \
                 other.")
  in
  let flight =
    Arg.(value & opt (some string) None & info [ "flight" ] ~docv:"FILE"
           ~doc:"(--serve) Enable the flight recorder (a bounded ring of \
                 recent admission/degradation/budget/frame events) and \
                 dump it to $(docv) as JSON at drain, on the first failed \
                 request, and on SIGQUIT.")
  in
  let doc = "technology mapping for SOI domino logic (Karandikar & Sapatnekar, DAC 2001)" in
  let default =
    Term.(
      const main $ jobs $ blif $ bench_file $ pla $ bench $ flow $ cost $ w_max
      $ h_max $ rewrite $ remap_base $ verify $ exact $ certify $ certify_max_cone
      $ certify_expansions $ prune $ exhaustive_limit $ print_gates $ timing
      $ multi $ spice $ verilog $ vcd $ timeout $ max_tuples $ max_bdd_nodes
      $ on_exhaust $ trace $ stats $ cache $ serve $ queue_depth $ max_conns
      $ dispatchers $ io_timeout $ drain_timeout $ max_timeout $ stats_addr
      $ flight)
  in
  let scrape =
    let addr =
      Arg.(required & pos 0 (some string) None & info [] ~docv:"ADDR"
             ~doc:"The daemon's --stats-addr listener (unix:PATH or \
                   tcp:HOST:PORT).")
    in
    Cmd.v
      (Cmd.info "scrape"
         ~doc:"Scrape a running daemon's OpenMetrics listener and \
               pretty-print counters, gauges, and interpolated histogram \
               quantiles (p50/p95/p99).")
      Term.(const scrape_main $ addr)
  in
  Cmd.group ~default (Cmd.info "soimap" ~doc) [ scrape ]

let () = exit (Cmd.eval cmd)
