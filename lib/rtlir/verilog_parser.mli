(** Frontend for a synthesizable Verilog-2001 subset.

    Accepts one module in the non-ANSI port style with: input/output/wire/reg
    declarations (vectors up to 64 bits), memories
    ([reg [w-1:0] m [0:n-1];]) with optional [initial] contents,
    [assign]s, [always @*] and [always @(pos|negedge ...)] processes with
    begin/end, if/else, case and (non)blocking assignments, and the usual
    expression grammar (ternary, logical/bitwise/relational/shift/arith
    operators, concatenation, replication, part/bit selects, [$signed] for
    comparisons and [>>>]).

    Width semantics follow the IEEE 1364 self-determined /
    context-determined sizing rules, lowered to this library's fixed-width
    IR by inserting explicit extensions and truncations. Everything
    {!Verilog.emit} produces round-trips.

    Limits (rejected with {!Parse_error}): multiple modules, instances,
    tasks/functions, generate, delays, strengths, real/integer variables,
    outputs driven from edge-triggered processes (declare an internal reg
    and [assign] the output instead — the form the exporter emits). *)

exception Parse_error of string

(** Parse and elaborate Verilog source into a validated design. Any
    malformed input, lexical errors and unsupported widths included,
    raises {!Parse_error} and nothing else. Lexical and syntax errors name
    their position as "line L, column C: ..."; elaboration errors (unknown
    names, widths, multiple drivers) name the offending identifier. *)
val parse : string -> Design.t
