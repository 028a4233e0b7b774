(** CSV rendering of the experiment tables (for spreadsheets / plotting). *)

val escape : string -> string
(** [escape cell] quotes a cell per RFC 4180 when needed. *)

val table1 : Experiments.comparison_row list -> string
(** Table I as CSV. *)

val table2 : Experiments.comparison_row list -> string
(** Table II as CSV. *)

val table3 : Experiments.t3_row list -> string
(** Table III as CSV. *)

val table4 : Experiments.t4_row list -> string
(** Table IV as CSV. *)

val write : string -> string -> unit
(** [write path text] writes [text] to [path]. *)
