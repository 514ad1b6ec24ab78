(* Hand-written lexer for the synthesizable Verilog subset accepted by
   {!Verilog_parser}. *)

type token =
  | IDENT of string
  | NUMBER of int  (* unsized decimal *)
  | SIZED of int * int64  (* width, value *)
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | LBRACE
  | RBRACE
  | SEMI
  | COLON
  | COMMA
  | QUESTION
  | AT
  | EQ  (* = *)
  | LE_ASSIGN  (* <= in statement position; also less-equal in expressions *)
  | OP of string  (* multi-char and single-char operators *)
  | EOF

exception Lex_error of string

let lex_error fmt = Format.kasprintf (fun s -> raise (Lex_error s)) fmt

(* [tok_start] is the offset of the last token lexed (the peeked one, if
   any), which is where a lexical or syntax error is reported. *)
type t = {
  src : string;
  mutable pos : int;
  mutable tok_start : int;
  mutable peeked : token option;
}

let create src = { src; pos = 0; tok_start = 0; peeked = None }

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let is_hex_digit c =
  is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let rec skip_ws t =
  let n = String.length t.src in
  if t.pos < n then
    match t.src.[t.pos] with
    | ' ' | '\t' | '\n' | '\r' ->
        t.pos <- t.pos + 1;
        skip_ws t
    | '/' when t.pos + 1 < n && t.src.[t.pos + 1] = '/' ->
        while t.pos < n && t.src.[t.pos] <> '\n' do
          t.pos <- t.pos + 1
        done;
        skip_ws t
    | '/' when t.pos + 1 < n && t.src.[t.pos + 1] = '*' ->
        t.pos <- t.pos + 2;
        let rec close () =
          if t.pos + 1 >= n then lex_error "unterminated comment"
          else if t.src.[t.pos] = '*' && t.src.[t.pos + 1] = '/' then
            t.pos <- t.pos + 2
          else begin
            t.pos <- t.pos + 1;
            close ()
          end
        in
        close ();
        skip_ws t
    | _ -> ()

let read_while t pred =
  let start = t.pos in
  let n = String.length t.src in
  while t.pos < n && pred t.src.[t.pos] do
    t.pos <- t.pos + 1
  done;
  String.sub t.src start (t.pos - start)

let decimal digits =
  match int_of_string_opt (String.concat "" (String.split_on_char '_' digits)) with
  | Some n -> n
  | None -> lex_error "number %s out of range" digits

let digits_value ~base s =
  let v = ref 0L in
  String.iter
    (fun c ->
      if c <> '_' then begin
        let d =
          if is_digit c then Char.code c - Char.code '0'
          else if c >= 'a' && c <= 'f' then Char.code c - Char.code 'a' + 10
          else if c >= 'A' && c <= 'F' then Char.code c - Char.code 'A' + 10
          else lex_error "bad digit %c" c
        in
        if d >= base then lex_error "digit %c out of base %d" c base;
        v := Int64.add (Int64.mul !v (Int64.of_int base)) (Int64.of_int d)
      end)
    s;
  !v

let next t =
  match t.peeked with
  | Some tok ->
      t.peeked <- None;
      tok
  | None ->
      skip_ws t;
      t.tok_start <- t.pos;
      let n = String.length t.src in
      if t.pos >= n then EOF
      else begin
        let c = t.src.[t.pos] in
        if is_ident_start c then IDENT (read_while t is_ident_char)
        else if is_digit c then begin
          let digits = read_while t (fun c -> is_digit c || c = '_') in
          skip_ws t;
          if t.pos < n && t.src.[t.pos] = '\'' then begin
            (* sized literal: <width>'<base><digits> *)
            t.pos <- t.pos + 1;
            if t.pos >= n then lex_error "literal without a base";
            let base =
              match t.src.[t.pos] with
              | 'h' | 'H' -> 16
              | 'd' | 'D' -> 10
              | 'b' | 'B' -> 2
              | 'o' | 'O' -> 8
              | c -> lex_error "unknown base %c" c
            in
            t.pos <- t.pos + 1;
            let value_digits = read_while t (fun c -> is_hex_digit c || c = '_') in
            SIZED (decimal digits, digits_value ~base value_digits)
          end
          else NUMBER (decimal digits)
        end
        else begin
          let two =
            if t.pos + 1 < n then String.sub t.src t.pos 2 else ""
          in
          let three =
            if t.pos + 2 < n then String.sub t.src t.pos 3 else ""
          in
          match (c, two, three) with
          | _, _, ">>>" ->
              t.pos <- t.pos + 3;
              OP ">>>"
          | _, ("<<" | ">>" | "==" | "!=" | "&&" | "||"), _ ->
              t.pos <- t.pos + 2;
              OP two
          | _, ">=", _ ->
              t.pos <- t.pos + 2;
              OP ">="
          | _, "<=", _ ->
              t.pos <- t.pos + 2;
              LE_ASSIGN
          | '(', _, _ -> t.pos <- t.pos + 1; LPAREN
          | ')', _, _ -> t.pos <- t.pos + 1; RPAREN
          | '[', _, _ -> t.pos <- t.pos + 1; LBRACKET
          | ']', _, _ -> t.pos <- t.pos + 1; RBRACKET
          | '{', _, _ -> t.pos <- t.pos + 1; LBRACE
          | '}', _, _ -> t.pos <- t.pos + 1; RBRACE
          | ';', _, _ -> t.pos <- t.pos + 1; SEMI
          | ':', _, _ -> t.pos <- t.pos + 1; COLON
          | ',', _, _ -> t.pos <- t.pos + 1; COMMA
          | '?', _, _ -> t.pos <- t.pos + 1; QUESTION
          | '@', _, _ -> t.pos <- t.pos + 1; AT
          | '=', _, _ -> t.pos <- t.pos + 1; EQ
          | ('+' | '-' | '*' | '/' | '%' | '&' | '|' | '^' | '~' | '<' | '>'), _, _
            ->
              t.pos <- t.pos + 1;
              OP (String.make 1 c)
          | _ -> lex_error "unexpected character %C" c
        end
      end

let peek t =
  match t.peeked with
  | Some tok -> tok
  | None ->
      let tok = next t in
      t.peeked <- Some tok;
      tok

let token_name = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | NUMBER n -> Printf.sprintf "number %d" n
  | SIZED (w, v) -> Printf.sprintf "literal %d'h%Lx" w v
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | LBRACKET -> "'['"
  | RBRACKET -> "']'"
  | LBRACE -> "'{'"
  | RBRACE -> "'}'"
  | SEMI -> "';'"
  | COLON -> "':'"
  | COMMA -> "','"
  | QUESTION -> "'?'"
  | AT -> "'@'"
  | EQ -> "'='"
  | LE_ASSIGN -> "'<='"
  | OP s -> Printf.sprintf "operator %S" s
  | EOF -> "end of input"
