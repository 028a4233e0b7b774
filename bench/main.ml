(* Bechamel benchmark harness.

   One Test.make per paper table, each measuring the end-to-end mapping
   pipeline that regenerates that table's numbers on a representative
   benchmark circuit, plus per-stage and ablation benches for the design
   choices called out in DESIGN.md §6.

   Run with:  dune exec bench/main.exe            (all benches)
              dune exec bench/main.exe -- table   (only table benches)

   Options (hand-parsed; bechamel has no CLI of its own):
     FILTER        table | stage | ablation | parallel | memo | rewrite | remap
     --jobs N      pool size for the parallel/* benches (default: cores)
     --json FILE   also write the results as JSON telemetry.  The schema
                   is documented in docs/verification.md; the revision
                   stamp is read from the BENCH_REV environment variable
                   so the harness needs no dependency on git or unix. *)

open Bechamel
open Bechamel.Toolkit

(* Workloads are prepared once, outside the measured closures. *)
let c880 = Gen.Suite.build_exn "c880"
let frg1 = Gen.Suite.build_exn "frg1"
let k2 = Gen.Suite.build_exn "k2"
let c880_unate = Mapper.Algorithms.prepare c880
let k2_unate = Mapper.Algorithms.prepare k2

(* Domino_Map's circuit: bulk stacks as the DP ordered them. *)
let bulk_circuit =
  fst
    (Mapper.Engine.map
       (Mapper.Algorithms.options_of Mapper.Algorithms.Domino_map)
       c880_unate)

let stage f = Staged.stage f

let table_benches =
  [
    Test.make ~name:"table1/domino_map(c880)"
      (stage (fun () -> ignore (Mapper.Algorithms.domino_map c880)));
    Test.make ~name:"table1/rs_map(c880)"
      (stage (fun () -> ignore (Mapper.Algorithms.rs_map c880)));
    Test.make ~name:"table2/soi_domino_map(c880)"
      (stage (fun () -> ignore (Mapper.Algorithms.soi_domino_map c880)));
    Test.make ~name:"table2/soi_domino_map(k2)"
      (stage (fun () -> ignore (Mapper.Algorithms.soi_domino_map k2)));
    Test.make ~name:"table3/clock_weighted_k2(c880)"
      (stage (fun () ->
           ignore
             (Mapper.Algorithms.soi_domino_map
                ~cost:(Mapper.Cost.clock_weighted 2) c880)));
    Test.make ~name:"table4/depth_bulk(c880)"
      (stage (fun () ->
           ignore (Mapper.Algorithms.domino_map ~cost:Mapper.Cost.depth_bulk c880)));
    Test.make ~name:"table4/depth_soi(c880)"
      (stage (fun () ->
           ignore (Mapper.Algorithms.soi_domino_map ~cost:Mapper.Cost.depth_soi c880)));
  ]

(* The daemon_remap payload shape: the seed-42 edit of prepared des,
   as the unate BLIF a remap request carries. *)
let des_edit_blif des_unate =
  Blif.to_string
    (Unate.Unetwork.to_network (Check.Edit.apply ~seed:42 des_unate))

let stage_benches =
  let des_edit =
    des_edit_blif (Mapper.Algorithms.prepare (Gen.Suite.build_exn "des"))
  in
  let des_edit_net = Blif.parse_string des_edit in
  [
    Test.make ~name:"stage/generate(c880)"
      (stage (fun () -> ignore (Gen.Suite.build_exn "c880")));
    Test.make ~name:"stage/blif_parse(des edit)"
      (stage (fun () -> ignore (Blif.parse_string des_edit)));
    Test.make ~name:"stage/prepare(des edit)"
      (stage (fun () -> ignore (Mapper.Algorithms.prepare des_edit_net)));
    Test.make ~name:"stage/strash(c880)" (stage (fun () -> ignore (Logic.Strash.run c880)));
    Test.make ~name:"stage/decompose+unate(c880)"
      (stage (fun () -> ignore (Mapper.Algorithms.prepare c880)));
    Test.make ~name:"stage/dp_soi(c880)"
      (stage (fun () -> ignore (Mapper.Engine.map Mapper.Engine.default_options c880_unate)));
    Test.make ~name:"stage/dp_soi(k2)"
      (stage (fun () -> ignore (Mapper.Engine.map Mapper.Engine.default_options k2_unate)));
    (* The resilience ladder: budgeted DP (checkpoint overhead over
       stage/dp_soi) and the greedy fallback it degrades to. *)
    Test.make ~name:"stage/dp_soi_budgeted(c880)"
      (stage (fun () ->
           ignore
             (Mapper.Engine.map
                ~budget:(Resilience.Budget.make ~timeout:3600.0 ~max_tuples:max_int ())
                Mapper.Engine.default_options c880_unate)));
    Test.make ~name:"stage/dp_greedy(c880)"
      (stage (fun () ->
           ignore (Mapper.Engine.map_greedy Mapper.Engine.default_options c880_unate)));
    (* The two halves of the engine's per-gate finish. *)
    Test.make ~name:"stage/reorder(c880)"
      (stage (fun () ->
           Array.iter
             (fun g -> ignore (Domino.Reorder.rearrange g.Domino.Domino_gate.pdn))
             bulk_circuit.Domino.Circuit.gates));
    Test.make ~name:"stage/pbe_analysis(c880)"
      (stage (fun () ->
           Array.iter
             (fun g ->
               ignore
                 (Domino.Pbe_analysis.discharge_points ~grounded:true
                    g.Domino.Domino_gate.pdn))
             bulk_circuit.Domino.Circuit.gates));
    Test.make ~name:"stage/extract(des)"
      (stage
         (let des = Gen.Suite.build_exn "des" in
          fun () -> ignore (Logic.Extract.run des)));
    Test.make ~name:"stage/sop_minimize(decoder4)"
      (stage
         (let pla = Pla.of_network (Gen.Circuits.decoder 4) in
          fun () -> ignore (Pla.minimize pla)));
    Test.make ~name:"stage/bdd_equiv(c880)"
      (stage
         (let c880n = Gen.Suite.build_exn "c880" in
          fun () -> ignore (Logic.Equiv.check c880n c880n)));
    Test.make ~name:"stage/equivalence_check(frg1)"
      (stage
         (let r = Mapper.Algorithms.soi_domino_map frg1 in
          fun () ->
            ignore
              (Domino.Circuit.equivalent_to ~vectors:512 r.Mapper.Algorithms.circuit
                 r.Mapper.Algorithms.unate)));
  ]

let ablation_benches =
  let opt = Mapper.Engine.default_options in
  [
    Test.make ~name:"ablation/both_orders(c880)"
      (stage (fun () -> ignore (Mapper.Engine.map opt c880_unate)));
    Test.make ~name:"ablation/heuristic_order_only(c880)"
      (stage (fun () ->
           ignore
             (Mapper.Engine.map { opt with Mapper.Engine.both_orders = false } c880_unate)));
    Test.make ~name:"ablation/ungrounded_foot(c880)"
      (stage (fun () ->
           ignore
             (Mapper.Engine.map
                { opt with Mapper.Engine.grounded_at_foot = false }
                c880_unate)));
    Test.make ~name:"ablation/w3_h4(c880)"
      (stage (fun () ->
           ignore
             (Mapper.Engine.map { opt with Mapper.Engine.w_max = 3; h_max = 4 } c880_unate)));
    Test.make ~name:"ablation/w8_h12(c880)"
      (stage (fun () ->
           ignore
             (Mapper.Engine.map { opt with Mapper.Engine.w_max = 8; h_max = 12 } c880_unate)));
  ]

(* Paired serial/pool benches over the actual parallel workloads of the
   pipeline (the portfolio sweep and per-benchmark experiment rows).
   Both sides run through [Parallel.Pool.map] — the serial side on a
   1-domain pool, which spawns no domains — so the pair isolates the
   speedup of domain fan-out from everything else.  The _serial/_pool
   naming convention is what the JSON writer uses to pair them. *)
let parallel_benches jobs =
  let pool1 = Parallel.Pool.create ~jobs:1 in
  let pooln = Parallel.Pool.create ~jobs in
  let portfolio = Array.of_list Mapper.Multi.default_portfolio in
  let run_portfolio pool =
    ignore
      (Parallel.Pool.map pool
         (fun (_label, cost) ->
           (Mapper.Algorithms.run ~cost Mapper.Algorithms.Soi_domino_map c880)
             .Mapper.Algorithms.counts)
         portfolio)
  in
  let row_names = [| "c880"; "frg1"; "k2" |] in
  let run_rows pool =
    ignore
      (Parallel.Pool.map pool
         (fun name ->
           let net = Gen.Suite.build_exn name in
           (Mapper.Algorithms.soi_domino_map net).Mapper.Algorithms.counts)
         row_names)
  in
  [
    Test.make ~name:"parallel/portfolio_serial(c880)"
      (stage (fun () -> run_portfolio pool1));
    Test.make ~name:"parallel/portfolio_pool(c880)"
      (stage (fun () -> run_portfolio pooln));
    Test.make ~name:"parallel/tablerows_serial"
      (stage (fun () -> run_rows pool1));
    Test.make ~name:"parallel/tablerows_pool"
      (stage (fun () -> run_rows pooln));
  ]

(* Paired cold/warm benches for the structural memo cache: cold runs
   the portfolio sweep with a fresh table every iteration (its hits are
   only intra-run structural repetition), warm reuses one shared table
   that a priming sweep filled before measurement began, so every
   subtree lookup hits and the DP combination loops are skipped.  The
   _cold/_warm naming convention is what the JSON writer uses to pair
   them, exactly like _serial/_pool. *)
let memo_benches =
  let des = Gen.Suite.build_exn "des" in
  let warm = Mapper.Memo.create () in
  ignore (Mapper.Multi.sweep ~memo:warm des);
  let k2_opts = Mapper.Engine.default_options in
  let warm_k2 = Mapper.Memo.create () in
  ignore (Mapper.Engine.map ~memo:warm_k2 k2_opts k2_unate);
  [
    Test.make ~name:"memo/multi_cold(des)"
      (stage (fun () ->
           ignore (Mapper.Multi.sweep ~memo:(Mapper.Memo.create ()) des)));
    Test.make ~name:"memo/multi_warm(des)"
      (stage (fun () -> ignore (Mapper.Multi.sweep ~memo:warm des)));
    Test.make ~name:"memo/dp_cold(k2)"
      (stage (fun () ->
           ignore
             (Mapper.Engine.map ~memo:(Mapper.Memo.create ()) k2_opts k2_unate)));
    Test.make ~name:"memo/dp_warm(k2)"
      (stage (fun () -> ignore (Mapper.Engine.map ~memo:warm_k2 k2_opts k2_unate)));
  ]

(* The rewriting front end: variant enumeration alone, then the full
   portfolio (original + 8 variants through the shared memo table)
   against the plain single-structure mapping it competes with. *)
let rewrite_benches =
  let opts = Mapper.Engine.default_options in
  [
    Test.make ~name:"rewrite/enumerate(c880)"
      (stage (fun () ->
           ignore (Rewrite.Choices.enumerate ~limit:8 c880_unate)));
    Test.make ~name:"rewrite/portfolio(c880)"
      (stage (fun () ->
           ignore
             (Mapper.Restructure.map_best ~limit:8 opts c880_unate)));
    Test.make ~name:"rewrite/plain_baseline(c880)"
      (stage (fun () -> ignore (Mapper.Engine.map opts c880_unate)));
  ]

(* Fresh local edits of des (seeds 100-107), each a network the remap
   state has not seen: the edit loop's real steady state, where the
   dirty cones miss and every clean cone hits. *)
let des_edits des_unate =
  Array.init 8 (fun i -> Check.Edit.apply ~seed:(100 + i) des_unate)

(* Incremental remapping.  The _cold/_warm pair feeds the JSON speedup
   rows like the memo benches: cold re-prices a locally edited network
   from a fresh memo every run; warm remaps it through a state primed
   once before measurement, where the whole-network fast path answers
   from the cached circuit after one structural comparison.  edited
   remaps a fresh edit on every run, cycling through [des_edits]. *)
let remap_benches =
  let opts = Mapper.Engine.default_options in
  let des_unate = Mapper.Algorithms.prepare (Gen.Suite.build_exn "des") in
  let edited = Check.Edit.apply ~seed:42 des_unate in
  let warm_st, _ = Mapper.Engine.remap_init opts des_unate in
  ignore (Mapper.Engine.remap warm_st edited);
  let edits = des_edits des_unate in
  let edit_st, _ = Mapper.Engine.remap_init opts des_unate in
  let next = ref 0 in
  [
    Test.make ~name:"remap/cold(des)"
      (stage (fun () ->
           ignore (Mapper.Engine.map ~memo:(Mapper.Memo.create ()) opts edited)));
    Test.make ~name:"remap/warm(des)"
      (stage (fun () -> ignore (Mapper.Engine.remap warm_st edited)));
    Test.make ~name:"remap/edited(des)"
      (stage (fun () ->
           incr next;
           ignore (Mapper.Engine.remap edit_st edits.(!next mod 8))));
  ]

(* Allocation evidence for docs/remap.md and the BENCH JSON: minor heap
   words allocated per mapped cone on the remap path, published through
   the metrics registry so a --json run carries the numbers next to the
   timing rows.  Cold re-prices an edited des from a fresh memo; warm is
   the whole-network fast path, which allocates nothing per cone.  The
   edit pair is the edit loop itself: remapping each fresh edit of
   [des_edits] against the des baseline, against a memo-free map of the
   same edits, under the area model and again under depth_soi.  The
   front end's pair is every word (minor and major) that parsing the
   seed-42 des edit allocates per byte of its BLIF, and that preparing
   it allocates per parsed node; the registry holds integers, so these
   two are rounded up.  The warm driver map is every minor word of one
   [Algorithms.map] of des through a memo that has mapped it before:
   the sweep's hits plus each gate's finish. *)
let publish_alloc_evidence () =
  let opts = Mapper.Engine.default_options in
  let des_unate = Mapper.Algorithms.prepare (Gen.Suite.build_exn "des") in
  let edited = Check.Edit.apply ~seed:42 des_unate in
  let st, _ = Mapper.Engine.remap_init opts des_unate in
  ignore (Mapper.Engine.remap st edited);
  let per_cone nets f =
    Gc.full_major ();
    let w0 = Gc.minor_words () in
    List.iter f nets;
    (Gc.minor_words () -. w0)
    /. float_of_int
         (List.fold_left (fun acc u -> acc + Unate.Unetwork.node_count u) 0 nets)
  in
  let cold_des =
    per_cone [ edited; edited; edited ] (fun u ->
        ignore (Mapper.Engine.map ~memo:(Mapper.Memo.create ()) opts u))
  in
  let warm_des =
    per_cone (List.init 50 (fun _ -> edited)) (fun u ->
        ignore (Mapper.Engine.remap st u))
  in
  let edits = Array.to_list (des_edits des_unate) in
  let edit_st, _ = Mapper.Engine.remap_init opts des_unate in
  let edit_remap =
    per_cone edits (fun u -> ignore (Mapper.Engine.remap edit_st u))
  in
  let edit_free = per_cone edits (fun u -> ignore (Mapper.Engine.map opts u)) in
  let depth = { opts with Mapper.Engine.cost = Mapper.Cost.depth_soi } in
  let depth_st, _ = Mapper.Engine.remap_init depth des_unate in
  let edit_remap_depth =
    per_cone edits (fun u -> ignore (Mapper.Engine.remap depth_st u))
  in
  let edit_free_depth =
    per_cone edits (fun u -> ignore (Mapper.Engine.map depth u))
  in
  let warm_memo = Mapper.Memo.create () in
  let driver_map () =
    ignore
      (Mapper.Algorithms.map ~memo:warm_memo Mapper.Algorithms.Soi_domino_map
         des_unate)
  in
  driver_map ();
  let warm_driver =
    Gc.full_major ();
    let w0 = Gc.minor_words () in
    driver_map ();
    Gc.minor_words () -. w0
  in
  let c name v =
    Obs.Metrics.add (Obs.Metrics.counter name) (int_of_float v)
  in
  let text = des_edit_blif des_unate in
  let net = Blif.parse_string text in
  let allocated f =
    Gc.full_major ();
    let minor0, promoted0, major0 = Gc.counters () in
    f ();
    let minor1, promoted1, major1 = Gc.counters () in
    minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)
  in
  let parse_per_byte =
    allocated (fun () -> ignore (Blif.parse_string text))
    /. float_of_int (String.length text)
  in
  let prepare_per_node =
    allocated (fun () -> ignore (Mapper.Algorithms.prepare net))
    /. float_of_int (Logic.Network.node_count net)
  in
  c "bench.blif_parse_words_per_byte(des)" (Float.ceil parse_per_byte);
  c "bench.prepare_words_per_node(des)" (Float.ceil prepare_per_node);
  c "bench.minor_words_per_cone_cold(des)" cold_des;
  c "bench.minor_words_per_cone_warm_remap(des)" warm_des;
  c "bench.minor_words_per_cone_edit_remap(des)" edit_remap;
  c "bench.minor_words_per_cone_edit_memo_free(des)" edit_free;
  c "bench.minor_words_per_cone_edit_remap_depth(des)" edit_remap_depth;
  c "bench.minor_words_per_cone_edit_memo_free_depth(des)" edit_free_depth;
  c "bench.minor_words_warm_driver_map(des)" warm_driver;
  Printf.printf
    "alloc: minor words per mapped cone — des cold %.0f, des warm remap \
     %.2f (%.0fx); fresh des edits: remap %.0f vs memo-free %.0f (%.2fx), \
     under depth_soi %.0f vs %.0f (%.2fx)\n%!"
    cold_des warm_des
    (cold_des /. Float.max warm_des 0.01)
    edit_remap edit_free
    (edit_remap /. Float.max edit_free 0.01)
    edit_remap_depth edit_free_depth
    (edit_remap_depth /. Float.max edit_free_depth 0.01);
  Printf.printf
    "alloc: front end on the des edit — parse %.2f words/byte, prepare \
     %.1f words/parsed node\n%!"
    parse_per_byte prepare_per_node;
  Printf.printf "alloc: warm des map through the driver — %.0f minor words\n%!"
    warm_driver

let benchmark tests =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"all" tests) in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  Analyze.merge ols instances results

(* ------------------------------------------------------------------ *)
(* JSON telemetry.                                                     *)
(* ------------------------------------------------------------------ *)

(* Pair every ..._serial... bench with its ..._pool... twin, and every
   ..._cold... bench with its ..._warm... twin (the memo benches).  In
   a pair's JSON row, "serial_ns" is the baseline (serial / cold) and
   "pool_ns" the accelerated side (pool / warm) — the field names
   predate the memo pairs and are kept for telemetry readers. *)
let speedups rows =
  let swap sub by name =
    let n = String.length name and m = String.length sub in
    let rec find i =
      if i + m > n then None
      else if String.sub name i m = sub then Some i
      else find (i + 1)
    in
    Option.map
      (fun i -> String.sub name 0 i ^ by ^ String.sub name (i + m) (n - i - m))
      (find 0)
  in
  let twin_of name =
    match swap "serial" "pool" name with
    | Some _ as t -> t
    | None -> swap "cold" "warm" name
  in
  List.filter_map
    (fun (name, serial_ns) ->
      match twin_of name with
      | None -> None
      | Some twin -> (
          match List.assoc_opt twin rows with
          | None -> None
          | Some pool_ns when pool_ns > 0.0 ->
              Some (name, serial_ns, pool_ns, serial_ns /. pool_ns)
          | Some _ -> None))
    rows

let write_json path ~jobs rows =
  let rev =
    Option.value (Sys.getenv_opt "BENCH_REV") ~default:"unknown"
  in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "{\n  \"rev\": \"%s\",\n  \"jobs\": %d,\n  \"benches\": [\n"
       (Obs.Json.escape rev) jobs);
  List.iteri
    (fun i (name, ns) ->
      Buffer.add_string buf
        (Printf.sprintf "    {\"name\": \"%s\", \"ns_per_run\": %.2f}%s\n"
           (Obs.Json.escape name) ns
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n  \"speedups\": [\n";
  let sp = speedups rows in
  List.iteri
    (fun i (name, serial_ns, pool_ns, speedup) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": \"%s\", \"serial_ns\": %.2f, \"pool_ns\": %.2f, \
            \"speedup\": %.3f}%s\n"
           (Obs.Json.escape name) serial_ns pool_ns speedup
           (if i = List.length sp - 1 then "" else ",")))
    sp;
  (* GC totals for the whole harness run and the metrics registry
     snapshot (collection is enabled in --json mode only, so the
     measured closures pay the instrumented-path cost only when the
     telemetry that justifies it is being written). *)
  Buffer.add_string buf "  ],\n  \"gc\": {\n";
  let gc = Obs.Gcstats.pairs () in
  List.iteri
    (fun i (name, v) ->
      Buffer.add_string buf
        (Printf.sprintf "    \"%s\": %.0f%s\n" (Obs.Json.escape name) v
           (if i = List.length gc - 1 then "" else ",")))
    gc;
  Buffer.add_string buf "  },\n  \"metrics\": {\n";
  let ms = Obs.Metrics.snapshot () in
  List.iteri
    (fun i (name, v) ->
      Buffer.add_string buf
        (Printf.sprintf "    \"%s\": %d%s\n" (Obs.Json.escape name) v
           (if i = List.length ms - 1 then "" else ",")))
    ms;
  Buffer.add_string buf "  }\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc

let () =
  let json_file = ref None and jobs = ref 0 and filter = ref None in
  let rec parse = function
    | [] -> ()
    | "--json" :: file :: rest ->
        json_file := Some file;
        parse rest
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n >= 0 -> jobs := n
        | _ ->
            prerr_endline "--jobs expects a non-negative integer";
            exit 2);
        parse rest
    | f :: rest ->
        filter := Some f;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let jobs =
    if !jobs <= 0 then Domain.recommended_domain_count () else !jobs
  in
  (* Metrics collection rides along only when telemetry is written, so
     plain bench runs measure the disabled (single-branch) path. *)
  if !json_file <> None then begin
    Obs.Metrics.set_enabled true;
    publish_alloc_evidence ()
  end;
  let par = parallel_benches jobs in
  let tests =
    match !filter with
    | Some "table" -> table_benches
    | Some "stage" -> stage_benches
    | Some "ablation" -> ablation_benches
    | Some "parallel" -> par
    | Some "memo" -> memo_benches
    | Some "rewrite" -> rewrite_benches
    | Some "remap" -> remap_benches
    | _ ->
        table_benches @ stage_benches @ ablation_benches @ par @ memo_benches
        @ rewrite_benches @ remap_benches
  in
  let results = benchmark tests in
  Printf.printf "%-50s %15s\n" "benchmark" "time/run";
  Printf.printf "%s\n" (String.make 68 '-');
  let rows = ref [] in
  Hashtbl.iter
    (fun _metric tbl ->
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> rows := (name, est) :: !rows
          | _ -> ())
        tbl)
    results;
  let rows = List.sort compare !rows in
  List.iter
    (fun (name, ns) ->
      let pretty =
        if ns > 1e9 then Printf.sprintf "%10.2f s " (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%10.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%10.2f us" (ns /. 1e3)
        else Printf.sprintf "%10.2f ns" ns
      in
      Printf.printf "%-50s %15s\n" name pretty)
    rows;
  match !json_file with
  | Some path ->
      write_json path ~jobs rows;
      Printf.printf "\nwrote JSON telemetry to %s\n" path
  | None -> ()
