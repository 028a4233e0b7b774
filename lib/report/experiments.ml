open Domino

type comparison_row = {
  name : string;
  base : Circuit.counts;
  improved : Circuit.counts;
}

let pct_of base delta = if base = 0 then 0.0 else 100.0 *. float_of_int delta /. float_of_int base

let disch_reduction_pct r =
  pct_of r.base.Circuit.t_disch (r.base.Circuit.t_disch - r.improved.Circuit.t_disch)

let total_reduction_pct r =
  pct_of r.base.Circuit.t_total (r.base.Circuit.t_total - r.improved.Circuit.t_total)

let average f rows =
  match rows with
  | [] -> 0.0
  | _ -> List.fold_left (fun acc r -> acc +. f r) 0.0 rows /. float_of_int (List.length rows)

(* Every experiment table maps each benchmark two ways; the rows are
   independent, so they are computed on the default {!Parallel.Pool}.
   Row order is the caller's name order regardless of pool size.  A row
   prepares its benchmark once and maps the prepared network under both
   of its configurations. *)

let prepared name = Mapper.Algorithms.prepare (Gen.Suite.build_exn name)

let counts ?cost flow u =
  (Mapper.Algorithms.map ?cost flow u).Mapper.Algorithms.counts

let comparison flow names =
  Parallel.Pool.map_list_default
    (fun name ->
      let u = prepared name in
      {
        name;
        base = counts Mapper.Algorithms.Domino_map u;
        improved = counts flow u;
      })
    names

let table1 ?(names = Gen.Suite.table1_names) () =
  comparison Mapper.Algorithms.Rs_map names

let table2 ?(names = Gen.Suite.table2_names) () =
  comparison Mapper.Algorithms.Soi_domino_map names

type t3_row = {
  name3 : string;
  k1 : Circuit.counts;
  kn : Circuit.counts;
}

let clock_reduction_pct r =
  pct_of r.k1.Circuit.t_clock (r.k1.Circuit.t_clock - r.kn.Circuit.t_clock)

let table3 ?(k = 2) ?(names = Gen.Suite.table3_names) () =
  Parallel.Pool.map_list_default
    (fun name ->
      let u = prepared name in
      let run k =
        counts ~cost:(Mapper.Cost.clock_weighted k)
          Mapper.Algorithms.Soi_domino_map u
      in
      { name3 = name; k1 = run 1; kn = run k })
    names

type t4_row = {
  name4 : string;
  source_depth : int;
  bulk : Circuit.counts;
  soi : Circuit.counts;
}

let table4 ?(names = Gen.Suite.table4_names) () =
  Parallel.Pool.map_list_default
    (fun name ->
      let u = prepared name in
      {
        name4 = name;
        source_depth = Unate.Unetwork.depth u;
        bulk =
          counts ~cost:Mapper.Cost.depth_bulk Mapper.Algorithms.Domino_map u;
        soi =
          counts ~cost:Mapper.Cost.depth_soi Mapper.Algorithms.Soi_domino_map u;
      })
    names

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)
(* ------------------------------------------------------------------ *)

let comparison_table ~improved_label rows =
  let t =
    Table.create
      [
        ("Circuit", Table.Left);
        ("Tlogic", Table.Right);
        ("Tdisch", Table.Right);
        ("Ttotal", Table.Right);
        (improved_label ^ " Tlogic", Table.Right);
        ("Tdisch", Table.Right);
        ("Ttotal", Table.Right);
        ("dTdisch", Table.Right);
        ("%", Table.Right);
        ("dTtotal", Table.Right);
        ("%", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.name;
          string_of_int r.base.Circuit.t_logic;
          string_of_int r.base.Circuit.t_disch;
          string_of_int r.base.Circuit.t_total;
          string_of_int r.improved.Circuit.t_logic;
          string_of_int r.improved.Circuit.t_disch;
          string_of_int r.improved.Circuit.t_total;
          string_of_int (r.base.Circuit.t_disch - r.improved.Circuit.t_disch);
          Table.fmt_pct (disch_reduction_pct r);
          string_of_int (r.base.Circuit.t_total - r.improved.Circuit.t_total);
          Table.fmt_pct (total_reduction_pct r);
        ])
    rows;
  Table.add_rule t;
  Table.add_row t
    [
      "Average"; ""; ""; ""; ""; ""; "";
      "";
      Table.fmt_pct (average disch_reduction_pct rows);
      "";
      Table.fmt_pct (average total_reduction_pct rows);
    ];
  t

let render_table1 rows = Table.to_string (comparison_table ~improved_label:"RS" rows)
let render_table2 rows = Table.to_string (comparison_table ~improved_label:"SOI" rows)
let markdown_table1 rows = Table.to_markdown (comparison_table ~improved_label:"RS" rows)
let markdown_table2 rows = Table.to_markdown (comparison_table ~improved_label:"SOI" rows)

let t3_table rows =
  let t =
    Table.create
      [
        ("Circuit", Table.Left);
        ("k=1 Tlogic", Table.Right);
        ("Tdisch", Table.Right);
        ("Ttotal", Table.Right);
        ("#G", Table.Right);
        ("Tclock", Table.Right);
        ("k=n Tlogic", Table.Right);
        ("Tdisch", Table.Right);
        ("Ttotal", Table.Right);
        ("#G", Table.Right);
        ("Tclock", Table.Right);
        ("%Improv", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      let c cnts =
        [
          string_of_int cnts.Circuit.t_logic;
          string_of_int cnts.Circuit.t_disch;
          string_of_int cnts.Circuit.t_total;
          string_of_int cnts.Circuit.gate_count;
          string_of_int cnts.Circuit.t_clock;
        ]
      in
      Table.add_row t
        ((r.name3 :: c r.k1) @ c r.kn @ [ Table.fmt_pct (clock_reduction_pct r) ]))
    rows;
  Table.add_rule t;
  Table.add_row t
    [
      "Average"; ""; ""; ""; ""; ""; ""; ""; ""; ""; "";
      Table.fmt_pct (average clock_reduction_pct rows);
    ];
  t

let render_table3 rows = Table.to_string (t3_table rows)
let markdown_table3 rows = Table.to_markdown (t3_table rows)

let t4_table rows =
  let t =
    Table.create
      [
        ("Circuit", Table.Left);
        ("L0", Table.Right);
        ("Bulk Tlogic", Table.Right);
        ("Tdisch", Table.Right);
        ("Ttotal", Table.Right);
        ("L", Table.Right);
        ("SOI Tlogic", Table.Right);
        ("Tdisch", Table.Right);
        ("Ttotal", Table.Right);
        ("L", Table.Right);
        ("dTdisch", Table.Right);
        ("%", Table.Right);
        ("dL", Table.Right);
        ("%", Table.Right);
      ]
  in
  let disch_pct r = pct_of r.bulk.Circuit.t_disch (r.bulk.Circuit.t_disch - r.soi.Circuit.t_disch) in
  let level_pct r = pct_of r.bulk.Circuit.levels (r.bulk.Circuit.levels - r.soi.Circuit.levels) in
  List.iter
    (fun r ->
      let c cnts =
        [
          string_of_int cnts.Circuit.t_logic;
          string_of_int cnts.Circuit.t_disch;
          string_of_int cnts.Circuit.t_total;
          string_of_int cnts.Circuit.levels;
        ]
      in
      Table.add_row t
        ((r.name4 :: string_of_int r.source_depth :: c r.bulk)
        @ c r.soi
        @ [
            string_of_int (r.bulk.Circuit.t_disch - r.soi.Circuit.t_disch);
            Table.fmt_pct (disch_pct r);
            string_of_int (r.bulk.Circuit.levels - r.soi.Circuit.levels);
            Table.fmt_pct (level_pct r);
          ]))
    rows;
  Table.add_rule t;
  Table.add_row t
    [
      "Average"; ""; ""; ""; ""; ""; ""; ""; ""; ""; "";
      Table.fmt_pct (average disch_pct rows);
      "";
      Table.fmt_pct (average level_pct rows);
    ];
  t

let render_table4 rows = Table.to_string (t4_table rows)
let markdown_table4 rows = Table.to_markdown (t4_table rows)

type ext_row = {
  name5 : string;
  soi : Circuit.counts;
  body_contacts : int;
  split_total : int;
  exposed : int;
  exposed_stripped : int;
  critical_delay : float;
}

let table5 ?(names = Gen.Suite.table2_names) () =
  Parallel.Pool.map_list_default
    (fun name ->
      let net = Gen.Suite.build_exn name in
      let r = Mapper.Algorithms.soi_domino_map net in
      let circuit = r.Mapper.Algorithms.circuit in
      let split = Alternatives.split_stacks circuit in
      let stripped =
        { circuit with
          Circuit.gates =
            Array.map
              (fun g -> { g with Domino_gate.discharge_points = [] })
              circuit.Circuit.gates }
      in
      {
        name5 = name;
        soi = r.Mapper.Algorithms.counts;
        body_contacts = Alternatives.circuit_body_contacts circuit;
        split_total = (Circuit.counts split).Circuit.t_total;
        exposed = (Hysteresis.of_circuit circuit).Hysteresis.exposed;
        exposed_stripped = (Hysteresis.of_circuit stripped).Hysteresis.exposed;
        critical_delay = (Timing.analyze circuit).Timing.critical_delay;
      })
    names

let t5_table rows =
  let t =
    Table.create
      [
        ("Circuit", Table.Left);
        ("Ttotal", Table.Right);
        ("Tdisch", Table.Right);
        ("Contacts(2)", Table.Right);
        ("Split Ttotal(3)", Table.Right);
        ("Exposed", Table.Right);
        ("Exposed(stripped)", Table.Right);
        ("Delay", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.name5;
          string_of_int r.soi.Circuit.t_total;
          string_of_int r.soi.Circuit.t_disch;
          string_of_int r.body_contacts;
          string_of_int r.split_total;
          string_of_int r.exposed;
          string_of_int r.exposed_stripped;
          Printf.sprintf "%.2f" r.critical_delay;
        ])
    rows;
  t

let render_table5 rows = Table.to_string (t5_table rows)
let markdown_table5 rows = Table.to_markdown (t5_table rows)
