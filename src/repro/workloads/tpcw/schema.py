"""TPC-W schema: the ten tables plus the secondary indexes the
interaction queries rely on.

Column sets are lightly trimmed from the TPC-W specification (long
descriptive text columns dropped) but keep every column a query touches,
so the transaction templates read like the benchmark's.
"""

from __future__ import annotations

from typing import Tuple

TPCW_DDL: Tuple[str, ...] = (
    # -- catalog side ------------------------------------------------------
    """CREATE TABLE author (
        a_id INTEGER PRIMARY KEY,
        a_fname VARCHAR(20) NOT NULL,
        a_lname VARCHAR(20) NOT NULL,
        a_mname VARCHAR(20),
        a_dob DATE,
        a_bio VARCHAR(125)
    )""",
    """CREATE TABLE item (
        i_id INTEGER PRIMARY KEY,
        i_title VARCHAR(60) NOT NULL,
        i_a_id INTEGER NOT NULL,
        i_pub_date DATE,
        i_publisher VARCHAR(60),
        i_subject VARCHAR(60),
        i_desc VARCHAR(100),
        i_srp FLOAT,
        i_cost FLOAT,
        i_avail DATE,
        i_stock INTEGER,
        i_isbn VARCHAR(13),
        i_page INTEGER,
        i_backing VARCHAR(15)
    )""",
    "CREATE INDEX item_a_id ON item (i_a_id)",
    "CREATE INDEX item_subject ON item (i_subject)",
    "CREATE INDEX item_title ON item (i_title)",
    "CREATE INDEX author_lname ON author (a_lname)",
    # -- customer side ------------------------------------------------------
    """CREATE TABLE country (
        co_id INTEGER PRIMARY KEY,
        co_name VARCHAR(50) NOT NULL,
        co_exchange FLOAT,
        co_currency VARCHAR(18)
    )""",
    """CREATE TABLE address (
        addr_id INTEGER PRIMARY KEY,
        addr_street1 VARCHAR(40),
        addr_street2 VARCHAR(40),
        addr_city VARCHAR(30),
        addr_state VARCHAR(20),
        addr_zip VARCHAR(10),
        addr_co_id INTEGER NOT NULL
    )""",
    """CREATE TABLE customer (
        c_id INTEGER PRIMARY KEY,
        c_uname VARCHAR(20) NOT NULL,
        c_passwd VARCHAR(20) NOT NULL,
        c_fname VARCHAR(17) NOT NULL,
        c_lname VARCHAR(17) NOT NULL,
        c_addr_id INTEGER NOT NULL,
        c_phone VARCHAR(18),
        c_email VARCHAR(50),
        c_since DATE,
        c_last_login DATE,
        c_login DATE,
        c_expiration DATE,
        c_discount FLOAT,
        c_balance FLOAT,
        c_ytd_pmt FLOAT
    )""",
    "CREATE UNIQUE INDEX customer_uname ON customer (c_uname)",
    # -- order side ---------------------------------------------------------
    """CREATE TABLE orders (
        o_id INTEGER PRIMARY KEY,
        o_c_id INTEGER NOT NULL,
        o_date DATE,
        o_sub_total FLOAT,
        o_tax FLOAT,
        o_total FLOAT,
        o_ship_type VARCHAR(10),
        o_ship_date DATE,
        o_bill_addr_id INTEGER,
        o_ship_addr_id INTEGER,
        o_status VARCHAR(16)
    )""",
    "CREATE INDEX orders_c_id ON orders (o_c_id)",
    """CREATE TABLE order_line (
        ol_o_id INTEGER NOT NULL,
        ol_id INTEGER NOT NULL,
        ol_i_id INTEGER NOT NULL,
        ol_qty INTEGER,
        ol_discount FLOAT,
        ol_comments VARCHAR(100),
        PRIMARY KEY (ol_o_id, ol_id)
    )""",
    """CREATE TABLE cc_xacts (
        cx_o_id INTEGER PRIMARY KEY,
        cx_type VARCHAR(10),
        cx_num VARCHAR(16),
        cx_name VARCHAR(31),
        cx_expire DATE,
        cx_auth_id VARCHAR(15),
        cx_xact_amt FLOAT,
        cx_xact_date DATE,
        cx_co_id INTEGER
    )""",
    # -- shopping cart --------------------------------------------------------
    """CREATE TABLE shopping_cart (
        sc_id INTEGER PRIMARY KEY,
        sc_time DATE
    )""",
    """CREATE TABLE shopping_cart_line (
        scl_sc_id INTEGER NOT NULL,
        scl_i_id INTEGER NOT NULL,
        scl_qty INTEGER,
        PRIMARY KEY (scl_sc_id, scl_i_id)
    )""",
)

TPCW_TABLES = [
    "author", "item", "country", "address", "customer",
    "orders", "order_line", "cc_xacts", "shopping_cart",
    "shopping_cart_line",
]
