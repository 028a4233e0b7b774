open Mapper

type entry = {
  name : string;
  what : string;
  render : unit -> string;
}

let run_flow ?w_max ?h_max flow net =
  let r = Algorithms.run ?w_max ?h_max flow net in
  Domino.Circuit.dump r.Algorithms.circuit

let flow_entry flow tag =
  {
    name = Printf.sprintf "flow_%s_cm150" tag;
    what =
      Printf.sprintf "%s on cm150 (16:1 mux), paper defaults"
        (Algorithms.flow_name flow);
    render = (fun () -> run_flow flow (Gen.Suite.build_exn "cm150"));
  }

let suite_entry name =
  {
    name;
    what = Printf.sprintf "SOI_Domino_Map on suite benchmark %s" name;
    render =
      (fun () -> run_flow Algorithms.Soi_domino_map (Gen.Suite.build_exn name));
  }

(* Suite benchmarks are looked up in [Suite.all] and [Suite.extras]. *)
let build_any name =
  match Gen.Suite.find name with
  | Some e -> e.Gen.Suite.build ()
  | None -> (
      match List.find_opt (fun e -> e.Gen.Suite.name = name) Gen.Suite.extras with
      | Some e -> e.Gen.Suite.build ()
      | None -> raise Not_found)

let extra_entry name =
  {
    name;
    what = Printf.sprintf "SOI_Domino_Map on generated circuit %s" name;
    render = (fun () -> run_flow Algorithms.Soi_domino_map (build_any name));
  }

(* Exact-optimality certification pins.  The render is [Opt.Certify]'s
   status-per-cone text (no expansion counts), so the pin captures the
   proved/gap/bounded/skipped verdicts under default budgets — any DP or
   backend change that moves a verdict shows up as a golden diff. *)
let certify_entry ?(w_max = 5) ?(h_max = 8) ~bench flow tag =
  {
    name = Printf.sprintf "certify_%s" tag;
    what =
      Printf.sprintf "exact-optimality certificates: %s on %s (W=%d H=%d)"
        (Algorithms.flow_name flow) bench w_max h_max;
    render =
      (fun () ->
        let r = Algorithms.run ~w_max ~h_max flow (build_any bench) in
        let options =
          Algorithms.options_of ~cost:Mapper.Cost.area ~w_max ~h_max
            ~both_orders:true ~grounded_at_foot:true ~pareto_width:1 flow
        in
        Opt.Certify.render (Opt.Certify.certify ~options r.Algorithms.unate));
  }

(* Rewrite-portfolio pins: the flow under [--rewrite] on benchmarks
   where the front end's restructurings beat the original mapping.  The
   header line pins the portfolio's accounting (which rule won, at which
   site, and both costs), the dump pins the rewritten circuit itself —
   a rule-set or pricing change shows up as a golden diff. *)
let rewrite_entry ~bench tag =
  {
    name = Printf.sprintf "rewrite_%s" tag;
    what =
      Printf.sprintf "SOI_Domino_Map with --rewrite=8 on %s (portfolio win)"
        bench;
    render =
      (fun () ->
        let r =
          Algorithms.run ~rewrite:8 Algorithms.Soi_domino_map (build_any bench)
        in
        let header =
          match r.Algorithms.rewrite with
          | None -> "rewrite: off\n"
          | Some i ->
              Printf.sprintf "rewrite: variants=%d tried=%d chosen=%s \
                              cost=%d->%d\n"
                i.Restructure.generated i.Restructure.tried
                (match i.Restructure.chosen_rule with
                | None -> "original"
                | Some rule ->
                    Printf.sprintf "%s@n%d" rule i.Restructure.chosen_site)
                i.Restructure.original_cost i.Restructure.cost
        in
        header ^ Domino.Circuit.dump r.Algorithms.circuit);
  }

(* Front-end pins: the mapper's view of a network that arrives as BLIF
   text.  Node order out of [Blif.parse_string] decides node order all
   the way down to the dump, so these pin the parser node for node. *)
let blif_entry name what net =
  {
    name;
    what;
    render =
      (fun () ->
        run_flow Algorithms.Soi_domino_map
          (Blif.parse_string (Blif.to_string (net ()))));
  }

let corpus =
  [
    {
      name = "fig3";
      what = "paper Figure 3: (a*b)+(c*d) under W_max=H_max=4";
      render =
        (fun () ->
          run_flow ~w_max:4 ~h_max:4 Algorithms.Soi_domino_map
            (build_any "fig3"));
    };
    certify_entry ~w_max:4 ~h_max:4 ~bench:"fig3" Algorithms.Soi_domino_map
      "fig3";
    certify_entry ~bench:"z4ml" Algorithms.Soi_domino_map "z4ml_soi";
    certify_entry ~bench:"cordic" Algorithms.Domino_map "cordic_bulk";
    flow_entry Algorithms.Domino_map "domino";
    flow_entry Algorithms.Rs_map "rs";
    flow_entry Algorithms.Soi_domino_map "soi";
    suite_entry "z4ml";
    suite_entry "cordic";
    suite_entry "f51m";
    suite_entry "count";
    suite_entry "9symml";
    suite_entry "c432";
    suite_entry "c880";
    suite_entry "c1908";
    suite_entry "frg1";
    rewrite_entry ~bench:"f51m" "f51m";
    rewrite_entry ~bench:"count" "count";
    extra_entry "cla16";
    extra_entry "gray8";
    extra_entry "lfsr16";
    extra_entry "dec5";
    (* The daemon's remap payload: an edited unate network as BLIF. *)
    blif_entry "blif_c880_edit"
      "SOI_Domino_Map on the BLIF of seed-42 edited, prepared c880"
      (fun () ->
        Unate.Unetwork.to_network
          (Edit.apply ~seed:42 (Algorithms.prepare (build_any "c880"))));
    (* OR covers of up to 27 cubes, and NOT covers. *)
    blif_entry "blif_c432"
      "SOI_Domino_Map on the raw generator c432 through BLIF"
      (fun () -> build_any "c432");
  ]

let find name = List.find_opt (fun e -> e.name = name) corpus

let filename e = e.name ^ ".txt"

let update_command = "dune exec bin/golden.exe -- update test/golden"
